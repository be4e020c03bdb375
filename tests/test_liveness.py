"""Every function, method and class in src/holderlab is reached, by an AST pass that
over-approximates what runs, from the CLI, the preset runner or a perfbench/tracer.py target:
a name reaches what it resolves to in its module or through a relative import, obj.name every
method called name (unless obj is an outside module: np.meshgrid), a class its dunders and
body; module-level statements always run.  A method is a def in a class body or a lambda
bound to one name there (name = lambda self, ...: ...).  Every module-level UPPER_CASE
constant is read by that code, by name in its module or through a relative import."""

import ast
import importlib.util
import re
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIPELINES = [("cli", "main"), ("experiments", "run_experiment")]
DEFS, NAMES, TOP = {}, {}, []  # (module, name or Class.method) -> node; module -> {name: key}
CONSTANTS = set()  # (module, NAME) of each module-level UPPER_CASE assignment


def _methods(cls: ast.ClassDef):
    """(name, node) of each method in the body of cls: a def, or a lambda bound to one name."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name, item
        elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Lambda)
              and len(item.targets) == 1 and isinstance(item.targets[0], ast.Name)):
            yield item.targets[0].id, item


def _index(module, tree):
    """Enter the definitions, names, module-level statements and constants of tree."""
    names = NAMES[module] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        elif isinstance(node, ast.Import):  # an outside module: None
            names.update({(a.asname or a.name).split(".")[0]: None for a in node.names})
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            TOP.append((module, node))
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    CONSTANTS.add((module, target.id))
                    names[target.id] = (module, target.id)
            continue
        DEFS[module, node.name], names[node.name] = node, (module, node.name)
        if isinstance(node, ast.ClassDef):
            DEFS.update({(module, f"{node.name}.{name}"): item for name, item in _methods(node)})


for file in sorted((ROOT / "src" / "holderlab").glob("*.py")):
    _index(file.stem, ast.parse(file.read_text()))


def _refs(module, nodes):
    """The definitions that the code of nodes names."""
    names = NAMES[module]
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name) and names.get(sub.id):
            yield names[sub.id]
        elif isinstance(sub, ast.Attribute) and not (isinstance(sub.value, ast.Name)
                                                     and names.get(sub.value.id, 1) is None):
            yield from (key for key in DEFS if key[1].endswith(f".{sub.attr}"))


def _reach(roots):
    todo = list(roots) + [ref for module, stmt in TOP for ref in _refs(module, [stmt])]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in DEFS:
            continue
        seen.add(key)
        node, body = DEFS[key], [DEFS[key]]
        if isinstance(node, ast.ClassDef):
            methods = dict(_methods(node))
            body = [item for item in node.body if item not in methods.values()]
            todo += [(key[0], f"{node.name}.{name}") for name in methods if name.startswith("__")]
        todo += _refs(key[0], body)
    return seen


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


def test_every_function_method_and_class_is_reached_from_a_pipeline_or_the_tracer():
    assert sorted(set(DEFS) - _reach(PIPELINES + _tracer_targets())) == []


def test_every_upper_case_constant_is_read_by_reached_code():
    # a constant outlives what read it (a block size of a deleted engine) unless some reached
    # definition or module-level statement loads its name
    read = set()
    for module, node in [(m, n) for m, n in TOP] + [(key[0], DEFS[key]) for key in _reach(
            PIPELINES + _tracer_targets())]:
        read.update(NAMES[module].get(sub.id) for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    assert sorted(CONSTANTS - read) == []


def test_every_tracer_target_is_reached_from_a_pipeline():
    # Tracer.install binds each target by name and fails without it, so a target no pipeline
    # runs would stay alive for the tracer alone and time nothing
    from_pipelines = _reach(PIPELINES)
    assert [key for key in _tracer_targets() if key not in from_pipelines] == []


def test_a_class_body_lambda_is_a_method_that_some_code_must_reach(monkeypatch):
    # name = lambda self, ...: ... is checked as a def is: its class alone reaches it only as a
    # dunder, and an unread one is left unreached, not taken as class body
    here = sys.modules[__name__]
    for table in ("DEFS", "NAMES", "TOP", "CONSTANTS"):
        monkeypatch.setattr(here, table, type(getattr(here, table))(getattr(here, table)))
    _index("probe", ast.parse(textwrap.dedent("""
        class C:
            __len__ = lambda self: 0
            read = lambda self: 1
            unread = lambda self: 2
            def method(self): ...
        def main():
            return C().read()
    """)))
    assert sorted(key[1] for key in DEFS if key[0] == "probe") == [
        "C", "C.__len__", "C.method", "C.read", "C.unread", "main"]
    assert sorted(key[1] for key in _reach([("probe", "main")]) if key[0] == "probe") == [
        "C", "C.__len__", "C.read", "main"]
