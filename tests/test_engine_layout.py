"""The engine's time-major tiles give the bits of a row-major engine.

The reference draws each block whole, copies its unit paths into a
C-ordered array, reduces them with numpy's own mean and sum along that
array's contiguous last axis, as the engine did before its tiles stayed
time-major, and applies mu and sigma per functional as the engine does.
"""

import math

import numpy as np
import pytest

from ar1_tstat import montecarlo
from ar1_tstat.params import Ar1Params, Functional
from ar1_tstat.process import paths_from_normals, stream_generator
from ar1_tstat.tstat import whiten


def _row_major_values(params, seed, blocks, functional):
    n, mu, sigma, rho, parts = params.n, params.mu, params.sigma, params.rho, []
    centre = mu / sigma if functional is Functional.MODIFIED_T_STAT else 0.0
    for block, rows in blocks:
        tile = stream_generator(seed, block).standard_normal((rows, n))
        # a C-ordered copy: numpy sums a strided row in another order
        paths = paths_from_normals(params, tile).copy()
        if functional is Functional.MODIFIED_T_STAT:
            paths = whiten(paths, rho)
            paths[:, 0] += centre * math.sqrt(1.0 - rho * rho)
            paths[:, 1:] += centre * (1.0 - rho)
        means = paths.mean(axis=-1)
        centered = paths - means[:, None]
        centered *= centered
        bessel = centered.sum(axis=-1) / (n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_values = math.sqrt(n) * (means - centre) / np.sqrt(bessel)
        t_values[bessel == 0.0] = np.nan
        by_functional = {
            Functional.SAMPLE_MEAN: mu + sigma * means,
            Functional.SAMPLE_VARIANCE: (sigma * sigma) * bessel,
        }
        parts.append(by_functional.get(functional, t_values))
    return np.concatenate(parts)


def _assert_row_major_bits(params, blocks):
    for functional in Functional:
        got = montecarlo._functional_blocks(params, 314, blocks, functional)
        want = _row_major_values(params, 314, blocks, functional)
        assert got.tobytes() == want.tobytes(), functional


# the default tile, one of twice its size (a whole block up to n = 256) and
# one of 3,001 normals
@pytest.mark.parametrize("tile_normals", [montecarlo.TILE_NORMALS, 2**20, 3001])
@pytest.mark.parametrize("n", [2, 7, 8, 9, 10, 127, 128, 129, 257, 1000])
def test_time_major_tiles_equal_row_major_reference(monkeypatch, n, tile_normals):
    # with 3,001 normals per tile, tiles hold from 1,500 rows (n=2) down to
    # 3 (n=1000) and never divide a block; they are drawn through stages of
    # 46 normals, 23 rows at n=2, which do not divide the tile either
    monkeypatch.setattr(montecarlo, "TILE_NORMALS", tile_normals)
    params = Ar1Params(mu=0.3, sigma=1.3, rho=0.8, n=n)
    blocks = [(0, montecarlo.BLOCK_SIZE), (1, 300)] if n <= 10 else [(0, 200), (3, 100)]
    _assert_row_major_bits(params, blocks)


@pytest.mark.parametrize("tile_normals", [montecarlo.TILE_NORMALS, 2**20, 15 * 3017])
def test_staged_draws_equal_row_major_reference(monkeypatch, tile_normals):
    # at n=3017 the default 173-row tile is drawn in 2-row stages and a
    # 347-row tile of 2^20 normals in 5-row stages, neither of which divides
    # its tile; 15 x 3017 normals per tile give 15-row tiles drawn through a
    # 1-row stage
    monkeypatch.setattr(montecarlo, "TILE_NORMALS", tile_normals)
    _assert_row_major_bits(Ar1Params(mu=0.3, sigma=1.3, rho=0.8, n=3017), [(0, 360), (3, 12)])


class _RecordedStream:
    """A Philox stream that records the buffers its normals are drawn into."""

    def __init__(self, generator, stages):
        self._generator, self._stages = generator, stages

    def standard_normal(self, *, out):
        self._stages.append(out)
        return self._generator.standard_normal(out=out)


def test_tiles_stay_time_major(monkeypatch):
    # a tile is drawn through a 64 KB stage, never into a second tile-sized
    # buffer: at n=1000, 8-row stage slices fill two 524-row tiles and
    # then a 52-row one; at n=10, one stage slice is the whole tile
    stages = []
    monkeypatch.setattr(
        montecarlo,
        "stream_generator",
        lambda seed, block: _RecordedStream(stream_generator(seed, block), stages),
    )
    for n, rows in ((10, 50), (1000, 1100)):
        params = Ar1Params(mu=0.3, sigma=1.0, rho=0.5, n=n)
        starts = set()
        for _, paths in montecarlo._path_tiles(params, 1, [(0, rows)]):
            assert paths.T.flags.c_contiguous and paths.shape[1] == n
            starts.add(paths.__array_interface__["data"][0])
            assert stages
            for stage in stages:
                assert stage.size <= montecarlo.TILE_NORMALS // 64
                assert not np.may_share_memory(stage, paths)
            stages.clear()
        assert len(starts) == 1  # every tile reuses the same lanes
