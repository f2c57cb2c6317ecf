import numpy as np
import pytest

from snlblock import sparse
from snlblock.bench import (BenchPoint, dense_core_multiplies, fit_scaling,
                            run_bench, snl_core_multiplies)
from snlblock.sampling import query_chunks
from snlblock.tensor import ConfigError


def synthetic_points(kind, exponent):
    return [BenchPoint(kind, n, 9, 16, 0.001 * n ** exponent, 0)
            for n in (64, 256, 1024)]


class TestFitScaling:
    def test_linear_power_law(self):
        assert fit_scaling(synthetic_points("snl", 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_power_law(self):
        assert fit_scaling(synthetic_points("dense-nl", 2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(ConfigError):
            fit_scaling(synthetic_points("snl", 1.0)[:2])

    def test_mixed_kinds_rejected(self):
        pts = synthetic_points("snl", 1.0)
        pts[0] = BenchPoint("dense-nl", 64, 9, 16, 1.0, 0)
        with pytest.raises(ConfigError):
            fit_scaling(pts)


class TestMultiplyFormulas:
    def test_paper_operating_point(self):
        # N=2401, K=81, C=64
        assert snl_core_multiplies(2401, 81, 64) == 2401 * 81 * (32 + 64)
        assert dense_core_multiplies(2401, 64) == 2401 * 2401 * (32 + 64)

    def test_k_equals_n_makes_counts_coincide(self):
        n, c = 36, 8
        assert snl_core_multiplies(n, n, c) == dense_core_multiplies(n, c)


class TestRunBench:
    def test_counts_match_closed_form(self):
        points = run_bench([(4, 4), (6, 6)], k=9, c=8, seed=0)
        assert len(points) == 4
        for p in points:
            expected = (dense_core_multiplies(p.n, p.c) if p.block == "dense-nl"
                        else snl_core_multiplies(p.n, p.k, p.c))
            assert p.multiplies == expected
            assert p.best_ms > 0

    @pytest.mark.parametrize("k", [10, 7])
    def test_non_square_k_counts_match_closed_form(self, k):
        # K=10 reads a 2 x 5 window, K=7 a 1 x 7 one
        points = run_bench([(4, 4)], k=k, c=8, seed=0)
        assert [(p.block, p.multiplies) for p in points] == [
            ("dense-nl", dense_core_multiplies(16, 8)), ("snl", snl_core_multiplies(16, k, 8))]

    def test_snl_row_runs_the_blocks_reads(self, monkeypatch):
        """The snl row times the fused chunk loop of snl_forward: one key
        read per chunk and call, and no einsum reference."""
        def unused(*args):
            raise AssertionError("the einsum reference is not the block's core")
        monkeypatch.setattr(sparse, "sparse_affinity", unused)
        monkeypatch.setattr(sparse, "sparse_aggregate", unused)
        reads, read = [], sparse.bilinear_sample

        def counted(f, coords, *args):
            reads.append(coords.shape)
            return read(f, coords, *args)
        monkeypatch.setattr(sparse, "bilinear_sample", counted)
        h, w, k = 24, 24, 49
        chunks = query_chunks(h * w, k, h, w)
        assert len(chunks) > 1
        run_bench([(h, w)], k=k, c=8, seed=0)
        assert reads and len(reads) % len(chunks) == 0
        per_call = [(q.stop - q.start, k, 2) for q, _ in chunks]
        assert reads == per_call * (len(reads) // len(chunks))

    @pytest.mark.parametrize("k, c", [(0, 8), (-1, 8), (9, 0), (9, 3), (9, -2)])
    def test_k_and_c_no_block_accepts_rejected(self, k, c):
        with pytest.raises(ConfigError):
            run_bench([(4, 4)], k=k, c=c)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigError):
            run_bench([(2, 2)], k=9, c=8)

    def test_csv_row_format(self):
        p = BenchPoint("snl", 256, 81, 64, 1.25, 123456)
        assert p.csv_row() == "snl,256,81,64,1.250000,123456"
