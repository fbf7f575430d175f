"""The engine's time-major tiles give the bits of a row-major engine.

The reference draws each block whole, copies its paths into a C-ordered
array and reduces them with numpy's own mean and sum along that array's
contiguous last axis, as the engine did before its tiles stayed time-major.
"""

import math

import numpy as np
import pytest

from ar1_tstat import montecarlo
from ar1_tstat.params import Ar1Params, Functional
from ar1_tstat.process import paths_from_normals, stream_generator
from ar1_tstat.tstat import whiten


def _row_major_values(params, seed, blocks, functional):
    n, parts = params.n, []
    for block, rows in blocks:
        tile = stream_generator(seed, block).standard_normal((rows, n))
        # a C-ordered copy: numpy sums a strided row in another order
        paths = paths_from_normals(params, tile).copy()
        if functional is Functional.MODIFIED_T_STAT:
            paths = whiten(paths, params.rho)
        means = paths.mean(axis=-1)
        centered = paths - means[:, None]
        centered *= centered
        bessel = centered.sum(axis=-1) / (n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_values = math.sqrt(n) * (means - params.mu) / np.sqrt(bessel)
        t_values[bessel == 0.0] = np.nan
        by_functional = {Functional.SAMPLE_MEAN: means, Functional.SAMPLE_VARIANCE: bessel}
        parts.append(by_functional.get(functional, t_values))
    return np.concatenate(parts)


@pytest.mark.parametrize("tile_normals", [montecarlo.TILE_NORMALS, 3001])
@pytest.mark.parametrize("n", [2, 7, 8, 9, 10, 127, 128, 129, 257, 1000])
def test_time_major_tiles_equal_row_major_reference(monkeypatch, n, tile_normals):
    # with 3,001 normals per tile, tiles hold from 1,500 rows (n=2) down to
    # 3 (n=1000) and never divide a block
    monkeypatch.setattr(montecarlo, "TILE_NORMALS", tile_normals)
    params = Ar1Params(mu=0.3, sigma=1.3, rho=0.8, n=n)
    blocks = [(0, montecarlo.BLOCK_SIZE), (1, 300)] if n <= 10 else [(0, 200), (3, 100)]
    for functional in Functional:
        got = montecarlo._functional_blocks(params, 314, blocks, functional)
        want = _row_major_values(params, 314, blocks, functional)
        assert got.tobytes() == want.tobytes(), functional


def test_tiles_stay_time_major():
    params = Ar1Params(mu=0.3, sigma=1.0, rho=0.5, n=10)
    for _, paths, spare in montecarlo._path_tiles(params, 1, [(0, 50)]):
        assert paths.shape == spare.shape == (50, 10)
        assert paths.T.flags.c_contiguous and spare.T.flags.c_contiguous
        assert not np.may_share_memory(paths, spare)
