import numpy as np
import pytest

from holderlab.convolution import _slab_differences, even_blocks


@pytest.fixture
def simulate():
    """simulate(convolve, *args, **kwargs): (convolve's ensemble of slab weights, the field it
    determines at every saved time and lattice point, (M, saved times, n)), read through the
    slab differences as u(t, x) - u(0, x) = D w^T, since u(0, .) = 0."""

    def run(convolve, *args, **kwargs):
        ens = convolve(*args, **kwargs)
        n, M = ens.grid.points, ens.values.shape[0]
        t = np.repeat(ens.time_indices, n)
        s = np.tile(np.arange(n), ens.time_indices.size)
        diff = _slab_differences(ens.kernel, ens.grid, ens.g, ens.noise, t, s, 0 * t, s)
        values = np.empty((M, t.size))
        for lo, hi in even_blocks(t.size, 2**12):
            values[:, lo:hi] = (diff.rows(slice(lo, hi)) @ ens.values.T).T
        return ens, values.reshape(M, -1, n)

    return run
