"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured value (run with pytest -s to see them)."""
import numpy as np
import pytest

from snlblock.bench import (dense_core_multiplies, fit_scaling, run_bench,
                            snl_core_multiplies)
from snlblock.dense import NlParams, dense_affinity, nl_forward
from snlblock.gradcheck import check_block
from snlblock.sparse import (GridSpec, Shape2D, SnlParams, base_grid,
                             full_coverage_grid, snl_core, snl_forward)
from snlblock.tensor import MultiplyCounter
from snlblock.trainer import TrainConfig, poly_lr, train


def test_criterion_1_dense_equivalence():
    """SNL with K=N full-coverage grid and zero offsets matches dense NL."""
    worst = {np.float64: 0.0, np.float32: 0.0}
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-5)):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c, h, w = 8, 7, 7
            n = h * w
            sp = SnlParams.random(rng, c, n, dtype=dtype, zero_gamma=False,
                                  zero_offset=True)
            x = rng.standard_normal((c, h, w)).astype(dtype)
            base = full_coverage_grid(Shape2D(h, w), dtype=dtype)
            z_s, _ = snl_forward(x, sp, base=base)
            z_d, _ = nl_forward(x.reshape(c, n), sp)
            dev = float(np.abs(z_s.reshape(c, n) - z_d).max())
            worst[dtype] = max(worst[dtype], dev)
            assert dev < tol, f"seed {seed} dtype {dtype}: deviation {dev}"
    print(f"\nPASS criterion 1: dense equivalence, max dev "
          f"double={worst[np.float64]:.2e} single={worst[np.float32]:.2e}")


def test_criterion_2_gradient_correctness():
    """Every parameter group passes gradcheck on 5 seeds."""
    worst = {"dense-nl": 0.0, "snl": 0.0}
    for kind, threshold in (("dense-nl", 1e-6), ("snl", 1e-5)):
        for seed in range(5):
            reports = check_block(kind, seed=seed, eps=1e-5, threshold=threshold)
            for rep in reports:
                worst[kind] = max(worst[kind], rep.max_rel_error)
                assert rep.passed, f"{kind} seed {seed}: {rep.line()}"
    print(f"\nPASS criterion 2: gradcheck, worst rel error "
          f"dense={worst['dense-nl']:.2e} snl={worst['snl']:.2e}")


def test_criterion_3_multiply_counts_exact():
    """Instrumented counts equal N*K*(3C/2) (SNL) and N^2*(3C/2) (dense)."""
    # small configurations, counted by running the actual cores
    for c, h, w, k in ((4, 4, 4, 9), (8, 6, 6, 9), (4, 5, 5, 25)):
        n = h * w
        rng = np.random.default_rng(0)
        sp = SnlParams.random(rng, c, k, dtype=np.float32, zero_offset=False)
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        g = GridSpec(*{9: (3, 3), 25: (5, 5)}[k])
        with MultiplyCounter() as mc:
            snl_forward(x, sp, g)
        assert mc.count == n * k * (3 * c // 2)
        q = rng.standard_normal((c // 2, n)).astype(np.float32)
        with MultiplyCounter() as mc:
            from snlblock.dense import dense_aggregate
            a = dense_affinity(q, q)
            dense_aggregate(rng.standard_normal((c, n)).astype(np.float32), a)
        assert mc.count == n * n * (3 * c // 2)
    # the operating point N=2401, K=81, C=64: counted via the block's core
    n, k, c = 2401, 81, 64
    rng = np.random.default_rng(1)
    q = rng.standard_normal((c // 2, n)).astype(np.float32)
    k_map = rng.standard_normal((c // 2, 49, 49)).astype(np.float32)
    v_map = rng.standard_normal((c, 49, 49)).astype(np.float32)
    coords = base_grid(Shape2D(49, 49), GridSpec(9, 9), dtype=np.float32)
    with MultiplyCounter() as mc:
        snl_core(q, k_map, v_map, coords)
    snl_total = mc.count
    assert snl_total == snl_core_multiplies(n, k, c) == n * k * (32 + 64)
    kk = rng.standard_normal((c // 2, n)).astype(np.float32)
    with MultiplyCounter() as mc3:
        dense_affinity(q, kk)
    assert mc3.count + n * n * c == dense_core_multiplies(n, c) == n * n * (32 + 64)
    print(f"\nPASS criterion 3: exact multiply counts, operating point "
          f"snl={snl_total} dense={dense_core_multiplies(n, c)}")


def test_criterion_4_empirical_scaling():
    """SNL core time ~ N, dense core ~ N^2; SNL faster at N=2401."""
    points = run_bench([(16, 16), (32, 32), (64, 64)], k=81, c=64,
                       repeats=5, seed=0)
    snl_pts = [p for p in points if p.block == "snl"]
    nl_pts = [p for p in points if p.block == "dense-nl"]
    snl_slope = fit_scaling(snl_pts)
    nl_slope = fit_scaling(nl_pts)
    op = run_bench([(49, 49)], k=81, c=64, repeats=5, seed=0)
    snl_ms = next(p.best_ms for p in op if p.block == "snl")
    nl_ms = next(p.best_ms for p in op if p.block == "dense-nl")
    # every point's time, so a failure shows which point moved
    seen = "; ".join(f"{p.block} N={p.n} {p.best_ms:.3f} ms" for p in points + op)
    assert 0.7 <= snl_slope <= 1.3, f"snl slope {snl_slope} ({seen})"
    assert 1.7 <= nl_slope <= 2.3, f"dense slope {nl_slope} ({seen})"
    assert snl_ms < nl_ms, f"snl {snl_ms} ms not faster than dense {nl_ms} ms ({seen})"
    print(f"\nPASS criterion 4: slopes snl={snl_slope:.2f} dense={nl_slope:.2f}; "
          f"at N=2401 snl {snl_ms:.1f} ms < dense {nl_ms:.1f} ms")


def test_criterion_5_residual_identity():
    """Zero fusion weights make both blocks the identity, bit-exactly."""
    rng = np.random.default_rng(0)
    for trial in range(100):
        c, h, w = 4, 5, 5
        dp = NlParams.random(rng, c, dtype=np.float32, zero_gamma=True)
        x = rng.standard_normal((c, h * w)).astype(np.float32)
        z, _ = nl_forward(x, dp)
        assert np.array_equal(z, x)
        sp = SnlParams.random(rng, c, 9, dtype=np.float32, zero_gamma=True,
                              zero_offset=False)
        x3 = rng.standard_normal((c, h, w)).astype(np.float32)
        z3, _ = snl_forward(x3, sp, GridSpec(3, 3))
        assert np.array_equal(z3, x3)
    print("\nPASS criterion 5: residual identity bit-exact, 100 random inputs each")


def test_criterion_6_row_stochasticity():
    """Affinity rows sum to 1: 1e-6 single, 1e-12 double."""
    worst = 0.0
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = (10 * rng.standard_normal((4, 30))).astype(dtype)
            k = (10 * rng.standard_normal((4, 30))).astype(dtype)
            a = dense_affinity(q, k)
            dev = float(np.abs(a.sum(axis=1) - 1).max())
            assert dev < tol
            # the block's core on a 5 x 6 map, a 3 x 3 window shifted off the grid
            v = rng.standard_normal((8, 5, 6)).astype(dtype)
            coords = base_grid(Shape2D(5, 6), GridSpec(3, 3), dtype=dtype) + (
                rng.standard_normal((30, 9, 2)).astype(dtype))
            s, _ = snl_core(q, k.reshape(4, 5, 6), v, coords)
            dev = max(dev, float(np.abs(s.sum(axis=1) - 1).max()))
            assert dev < tol
            worst = max(worst, dev) if dtype == np.float32 else worst
    print(f"\nPASS criterion 6: row sums, worst single-precision dev {worst:.2e}")


def test_criterion_7_poly_schedule():
    """poly_lr matches base_lr*(1 - iter/max_iter)^0.9 to 1e-12."""
    cfg = TrainConfig(max_iter=30000)
    assert poly_lr(0, cfg) == 0.005
    worst = 0.0
    for it in np.linspace(0, 30000, 100).astype(int):
        expected = 0.005 * (1.0 - int(it) / 30000) ** 0.9
        worst = max(worst, abs(poly_lr(int(it), cfg) - expected))
    assert worst < 1e-12
    print(f"\nPASS criterion 7: poly schedule, max dev {worst:.1e}, lr(0)=0.005")


def test_criterion_8_learning_demonstration():
    """SNL beats the equal-budget local baseline by > 10 points on the
    beacon task; offsets grow from exactly 0 to > 0.5 px."""
    cfg = TrainConfig()  # 32x32, 2000 iterations, default config
    snl_log, _ = train("snl", cfg)
    base_log, _ = train("local-baseline", cfg)
    margin = 100 * (snl_log.final_accuracy - base_log.final_accuracy)
    assert snl_log.rows[0][4] == 0.0, "offsets must start at exactly 0"
    final_offset = snl_log.rows[-1][4]
    assert margin > 10.0, (f"margin {margin:.1f} points (snl "
                           f"{snl_log.final_accuracy:.3f} vs baseline "
                           f"{base_log.final_accuracy:.3f})")
    assert final_offset > 0.5, f"mean |offset| {final_offset:.3f} <= 0.5"
    print(f"\nPASS criterion 8: snl {100 * snl_log.final_accuracy:.1f}% vs "
          f"baseline {100 * base_log.final_accuracy:.1f}% "
          f"(+{margin:.1f} pts), mean |offset| 0 -> {final_offset:.2f} px")
