import numpy as np
import pytest

from snlblock import gradcheck
from snlblock.dense import nl_backward
from snlblock.sparse import snl_backward
from snlblock.gradcheck import (GradReport, central_diff, check_block,
                                relative_errors)
from snlblock.tensor import ConfigError, softmax_rows


class TestCentralDiff:
    def test_quadratic(self):
        g = central_diff(lambda x: float((x * x).sum()), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        g = central_diff(lambda x: 3.0, np.arange(5.0), 1e-5)
        assert not g.any()

    def test_softmax_jacobian_formula(self):
        # d/dx of softmax(x) . w equals a_i (w_i - a . w)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        w = rng.standard_normal(6)

        def f(x_):
            return float(softmax_rows(x_[None, :])[0] @ w)

        numeric = central_diff(f, x, 1e-5)
        a = softmax_rows(x[None, :])[0]
        analytic = a * (w - a @ w)
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)

    def test_quadratic_truncation_order(self):
        # error of central differences on a cubic shrinks like eps^2
        x = np.array([1.0])
        f = lambda x_: float(x_[0] ** 3)
        err = lambda eps: abs(central_diff(f, x, eps)[0] - 3.0)
        assert err(1e-3) / err(1e-2) == pytest.approx(1e-2, rel=0.1)

    def test_perturbs_the_array_in_place_and_restores_it(self):
        # check_block's loss reads the perturbed array through the block,
        # not through its argument
        x = np.array([1.0, -2.0, 0.5])
        seen = []

        def f(arg):
            assert arg is x
            seen.append(x.copy())
            return float(x @ [3.0, 5.0, 7.0])

        g = central_diff(f, x, 0.25)
        np.testing.assert_allclose(g, [3.0, 5.0, 7.0])
        assert x.tolist() == [1.0, -2.0, 0.5]
        assert seen[0].tolist() == [1.25, -2.0, 0.5]

    def test_bad_eps(self, monkeypatch):
        # check_block rejects the step as central_diff does, before any
        # block forward runs
        def no_forward(*args, **kwargs):
            raise AssertionError("block forward ran")

        monkeypatch.setattr(gradcheck, "nl_forward", no_forward)
        monkeypatch.setattr(gradcheck, "snl_forward", no_forward)
        for eps in (0.0, -1e-5, np.inf, np.nan):
            message = f"eps must be finite and positive, got {eps}$"
            with pytest.raises(ConfigError, match=message):
                central_diff(lambda x: 0.0, np.zeros(2), eps)
            for kind in ("dense-nl", "snl"):
                with pytest.raises(ConfigError, match=message):
                    check_block(kind, seed=0, eps=eps)


class TestCheckBlock:
    def test_dense_acceptance_dims(self):
        reports = check_block("dense-nl", seed=0, dims={"c": 4, "n": 9},
                              eps=1e-5, threshold=1e-6)
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_snl_acceptance_dims(self):
        reports = check_block("snl", seed=0,
                              dims={"c": 4, "h": 5, "w": 5, "kh": 3, "kw": 3},
                              threshold=1e-5)
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_impossible_threshold_fails_everything(self):
        reports = check_block("dense-nl", seed=0, threshold=0.0)
        assert not any(r.passed for r in reports)

    def test_deterministic(self):
        a = check_block("snl", seed=7)
        b = check_block("snl", seed=7)
        assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            check_block("bogus")


def test_report_invariant():
    rep = GradReport("x", 1e-7, 1e-9, passed=True, roundoff=2e-10)
    assert rep.max_rel_error >= 0
    assert rep.line() == ("x            maxRelError=1.000e-07 maxAbsError=1.000e-09 "
                          "roundoff=2.000e-10 PASS")


def test_relative_error_floor():
    # both gradients at roundoff level compare as equal, not as rel=1
    a = np.array([1e-17])
    n = np.array([5e-11])
    assert relative_errors(a, n, 0.0)[0] == 0.0


@pytest.mark.parametrize("kind,seed", [("dense-nl", 98), ("snl", 162),
                                       ("dense-nl", 205), ("snl", 206)])
def test_roundoff_sized_error_passes(kind, seed):
    # each seed has one entry whose analytic and numeric gradients differ by
    # ~1e-10, inside the roundoff bound machine_eps * |loss| / eps
    reports = check_block(kind, seed=seed)
    assert all(r.passed for r in reports), [r.line() for r in reports]


def test_injected_error_fails(monkeypatch):
    def off_by_1e6(acts, p, x, grad_z):
        grad_x, grads = nl_backward(acts, p, x, grad_z)
        grads["b_theta"][0] += 1e-6
        return grad_x, grads

    monkeypatch.setattr(gradcheck, "nl_backward", off_by_1e6)
    reports = {r.param_group: r for r in check_block("dense-nl", seed=98)}
    assert not reports["b_theta"].passed
    assert all(r.passed for name, r in reports.items() if name != "b_theta")


@pytest.mark.parametrize("group", ["w_offset", "b_offset", "x"])
def test_injected_snl_error_fails_only_its_group(group, monkeypatch):
    # the offset head moves the sampling coordinates, so its check holds
    # only if each in-place perturbation reaches the forward
    def off_by_1e4(acts, p, x, grad_z):
        grad_x, grads = snl_backward(acts, p, x, grad_z)
        (grad_x if group == "x" else grads[group])[...] *= 1 + 1e-4
        return grad_x, grads

    monkeypatch.setattr(gradcheck, "snl_backward", off_by_1e4)
    reports = check_block("snl", seed=0)
    assert [r.param_group for r in reports if not r.passed] == [group]
    failed = next(r for r in reports if not r.passed)
    assert failed.max_rel_error == pytest.approx(1e-4, rel=1e-3)


def test_roundoff_bound_zeroes_only_smaller_differences():
    a = np.array([1e-4, 1e-4])
    n = np.array([1e-4 + 1e-10, 1e-4 + 1e-6])
    rel = relative_errors(a, n, 1e-9)
    assert rel[0] == 0.0 and rel[1] > 1e-3


@pytest.mark.parametrize("kind, name, backward", [("dense-nl", "nl_backward", nl_backward),
                                                   ("snl", "snl_backward", snl_backward)])
def test_step_too_small_to_check_is_a_config_error(kind, name, backward, monkeypatch):
    # at eps=1e-300 the roundoff bound is over 1e+285, above every
    # gradient entry, so a w_theta gradient three times too large would
    # read PASS; the default step still catches it
    def tripled(acts, p, x, grad_z):
        grad_x, grads = backward(acts, p, x, grad_z)
        grads["w_theta"] *= 3.0
        return grad_x, grads

    monkeypatch.setattr(gradcheck, name, tripled)
    with pytest.raises(ConfigError, match="roundoff bound"):
        check_block(kind, seed=0, eps=1e-300)
    reports = {r.param_group: r for r in check_block(kind, seed=0)}
    assert not reports["w_theta"].passed
