"""Every function, method and class in src/holderlab is reached, by an AST pass that
over-approximates what runs, from the CLI, the preset runner or a perfbench/tracer.py target:
a name reaches what it resolves to in its module or through a relative import, obj.name every
method called name (unless obj is an outside module: np.meshgrid), a class its dunders and
body; module-level statements always run.  Every module-level UPPER_CASE constant is read by
that code, by name in its module or through a relative import."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIPELINES = [("cli", "main"), ("experiments", "run_experiment")]
DEFS, NAMES, TOP = {}, {}, []  # (module, name or Class.method) -> node; module -> {name: key}
CONSTANTS = set()  # (module, NAME) of each module-level UPPER_CASE assignment
for file in sorted((ROOT / "src" / "holderlab").glob("*.py")):
    module, tree = file.stem, ast.parse(file.read_text())
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
            DEFS.update({(module, f"{node.name}.{item.name}"): item for item in node.body
                         if isinstance(item, ast.FunctionDef)})


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
            body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            todo += [(key[0], f"{node.name}.{item.name}") for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]
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


def test_the_tracer_wraps_one_function_no_pipeline_runs():
    # second_moment_pairs (exact second moments of given pairs) has no pipeline caller, but
    # Tracer.install binds it by name for the convolution.oracle span and fails without it:
    # it stays, the one definition that only a tracer target reaches
    from_pipelines = _reach(PIPELINES)
    assert [key for key in _tracer_targets() if key not in from_pipelines] == [
        ("convolution", "second_moment_pairs")]
