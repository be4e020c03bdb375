import itertools

import pytest


@pytest.fixture
def simulate(tmp_path):
    """simulate(convolve, *args, **kwargs): convolve's field streamed to a new sink under
    tmp_path, as (the stored ensemble, all its values read back whole, values.rows(0, M))."""
    names = itertools.count()

    def run(convolve, *args, **kwargs):
        ens = convolve(*args, sink=str(tmp_path / f"field{next(names)}"), **kwargs)
        return ens, ens.values.rows(0, ens.values.shape[0])

    return run
