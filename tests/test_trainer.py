import numpy as np
import pytest

from snlblock import trainer
from snlblock.sparse import GridSpec
from snlblock.tensor import ConfigError, NumericError
from snlblock.trainer import (BeaconSample, DivergenceError, TrainConfig,
                              conv3x3, conv3x3_backward, evaluate, gen_beacon_dataset,
                              init_model, poly_lr, sgd_step, train)


class TestTrainConfig:
    @pytest.mark.parametrize("features", [-2, 0, 1, 3, 9])
    def test_features_below_two_or_odd_rejected(self, features):
        with pytest.raises(ConfigError, match="features"):
            TrainConfig(features=features)

    @pytest.mark.parametrize("name", ["base_lr", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_optimizer_settings_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    def test_smallest_even_features_accepted(self):
        assert TrainConfig(features=2, momentum=0.0, weight_decay=0.0).features == 2


class TestPolyLr:
    def test_initial_value(self):
        assert poly_lr(0, TrainConfig(max_iter=1000)) == 0.005

    def test_final_value(self):
        assert poly_lr(1000, TrainConfig(max_iter=1000)) == 0.0

    def test_midpoint(self):
        lr = poly_lr(500, TrainConfig(max_iter=1000))
        assert lr == pytest.approx(2.679e-3, abs=1e-6)

    def test_formula_at_100_points(self):
        cfg = TrainConfig(max_iter=777)
        for it in np.linspace(0, 777, 100).astype(int):
            expected = 0.005 * (1 - it / 777) ** 0.9
            assert abs(poly_lr(int(it), cfg) - expected) < 1e-12

    def test_monotone_nonincreasing(self):
        cfg = TrainConfig(max_iter=50)
        lrs = [poly_lr(i, cfg) for i in range(51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            poly_lr(1001, TrainConfig(max_iter=1000))


class TestSgdStep:
    def setup_method(self):
        self.params = {"w": np.array([1.0, -2.0])}
        self.vel = {"w": np.zeros(2)}

    def test_zero_lr_leaves_params(self):
        before = self.params["w"].copy()
        sgd_step(self.params, {"w": np.array([5.0, 5.0])}, self.vel, 0.0,
                 TrainConfig())
        assert np.array_equal(self.params["w"], before)

    def test_plain_gradient_descent_reduction(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
        g = {"w": np.array([0.5, -0.5])}
        expected = self.params["w"] - 0.1 * g["w"]
        sgd_step(self.params, g, self.vel, 0.1, cfg)
        np.testing.assert_allclose(self.params["w"], expected)

    def test_velocity_accumulates_constant_grad(self):
        cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
        g = {"w": np.array([1.0, 1.0])}
        sgd_step(self.params, g, self.vel, 0.0, cfg)
        sgd_step(self.params, g, self.vel, 0.0, cfg)
        # unrolled: v = g * (1 + momentum)
        np.testing.assert_allclose(self.vel["w"], 1.9)

    def test_weight_decay_enters_velocity(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.1)
        sgd_step(self.params, {"w": np.zeros(2)}, self.vel, 0.0, cfg)
        np.testing.assert_allclose(self.vel["w"], 0.1 * np.array([1.0, -2.0]))

    def test_nonfinite_grad_raises(self):
        with pytest.raises(DivergenceError):
            sgd_step(self.params, {"w": np.array([np.nan, 0.0])}, self.vel,
                     0.1, TrainConfig())

    def test_nonfinite_grad_in_later_group_steps_nothing(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        vel = {name: np.zeros(1) for name in params}
        grads = {"a": np.array([1.0]), "b": np.array([np.nan])}
        with pytest.raises(DivergenceError):
            sgd_step(params, grads, vel, 0.1, TrainConfig())
        assert params["a"][0] == 1.0 and vel["a"][0] == 0.0

    def test_overflowing_step_steps_nothing(self):
        # finite gradients whose step overflows float32 in the last group
        params = {"a": np.array([1.0], dtype=np.float32),
                  "b": np.array([3e38], dtype=np.float32)}
        vel = {name: np.zeros(1, dtype=np.float32) for name in params}
        grads = {"a": np.array([1.0], dtype=np.float32),
                 "b": np.array([-3e38], dtype=np.float32)}
        with pytest.raises(DivergenceError, match="b non-finite"):
            sgd_step(params, grads, vel, 10.0, TrainConfig())
        assert params["a"][0] == 1.0 and vel["a"][0] == 0.0
        assert params["b"][0] == np.float32(3e38) and vel["b"][0] == 0.0


class TestBeaconDataset:
    def test_same_seed_identical(self):
        a = gen_beacon_dataset(4, seed=3)
        b = gen_beacon_dataset(4, seed=3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.input, sb.input)
            assert np.array_equal(sa.labels, sb.labels)

    def test_empty(self):
        assert gen_beacon_dataset(0) == []

    def test_beacon_separation(self):
        samples = gen_beacon_dataset(256, (32, 32), seed=0)
        for s in samples:
            (x0, y0), (x1, y1) = s.beacons
            assert np.hypot(x1 - x0, y1 - y0) >= 16

    def test_class_balance_within_10_percent(self):
        samples = gen_beacon_dataset(256, (32, 32), seed=0)
        counts = np.zeros(2)
        for s in samples:
            counts += np.bincount(s.labels.reshape(-1), minlength=2)
        frac = counts / counts.sum()
        assert np.all(np.abs(frac - 0.5) < 0.05)

    def test_labels_match_nearest_beacon(self):
        for s in gen_beacon_dataset(8, seed=1):
            h, w = s.labels.shape
            ys, xs = np.mgrid[0:h, 0:w]
            d0 = (xs - s.beacons[0, 0]) ** 2 + (ys - s.beacons[0, 1]) ** 2
            d1 = (xs - s.beacons[1, 0]) ** 2 + (ys - s.beacons[1, 1]) ** 2
            expected = np.where(d0 <= d1, s.classes[0], s.classes[1])
            assert np.array_equal(s.labels, expected)

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ConfigError):
            gen_beacon_dataset(1, (8, 8))


class TestConv3x3:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = conv3x3(x, w, b)
        for o in range(3):
            for y in range(5):
                for xx in range(5):
                    acc = b[o]
                    for c in range(2):
                        for r in range(3):
                            for cc in range(3):
                                yy, xc = y + r - 1, xx + cc - 1
                                if 0 <= yy < 5 and 0 <= xc < 5:
                                    acc += w[o, c, r, cc] * x[c, yy, xc]
                    assert out[o, y, xx] == pytest.approx(acc, rel=1e-5)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        b = rng.standard_normal(2)
        go = rng.standard_normal((2, 4, 4))
        gx, gw, gb = conv3x3_backward(x, w, go)
        eps = 1e-6

        def loss(x_, w_, b_):
            return float((conv3x3(x_, w_, b_) * go).sum())

        for idx in np.ndindex(x.shape):
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            assert gx[idx] == pytest.approx((loss(xp, w, b) - loss(xm, w, b)) / (2 * eps), abs=1e-6)
        for idx in np.ndindex(w.shape):
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            assert gw[idx] == pytest.approx((loss(x, wp, b) - loss(x, wm, b)) / (2 * eps), abs=1e-6)


class TestTrain:
    def test_zero_lr_keeps_loss_constant(self):
        # dataset size == batch so every iteration sees the same batch
        cfg = TrainConfig(base_lr=1e-30, max_iter=5, batch=4, n_images=4,
                          n_eval=2, seed=0)
        log, _ = train("snl", cfg)
        losses = [row[2] for row in log.rows]
        assert max(losses) - min(losses) < 1e-9

    def test_bit_reproducible(self):
        cfg = TrainConfig(max_iter=5, batch=2, n_images=8, n_eval=2, seed=5)
        log_a, params_a = train("snl", cfg)
        log_b, params_b = train("snl", cfg)
        assert log_a.rows == log_b.rows
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_offsets_start_at_zero(self):
        cfg = TrainConfig(max_iter=3, batch=2, n_images=4, n_eval=2)
        log, _ = train("snl", cfg)
        assert log.rows[0][4] == 0.0

    def test_baseline_has_no_offsets(self):
        cfg = TrainConfig(max_iter=3, batch=2, n_images=4, n_eval=2)
        log, params = train("local-baseline", cfg)
        assert all(row[4] == 0.0 for row in log.rows)
        assert "head.w_local" in params

    def test_loss_trends_down_over_first_200_iterations(self):
        cfg = TrainConfig(max_iter=200, n_eval=4)
        log, _ = train("snl", cfg)
        losses = np.array([row[2] for row in log.rows])
        slope = np.polyfit(np.arange(len(losses)), losses, 1)[0]
        assert slope < 0, f"loss slope {slope} not negative"

    def test_divergence_reports_iteration_and_last_good_params(self):
        # the first step at lr 1e9 stays finite; the second forward meets a NaN
        cfg = TrainConfig(base_lr=1e9, max_iter=5, n_images=4, n_eval=2)
        with pytest.raises(DivergenceError, match="at iteration 1") as info:
            train("snl", cfg)
        assert info.value.iteration == 1
        # one step, then the final evaluation meets the same NaN
        cfg.max_iter = 1
        with pytest.raises(DivergenceError, match="final evaluation") as one_step:
            train("snl", cfg)
        assert one_step.value.iteration == 1
        last_good = info.value.last_good
        assert all(np.isfinite(v).all() for v in last_good.values())
        assert all(np.array_equal(v, one_step.value.last_good[name])
                   for name, v in last_good.items())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model", ["snl", "local-baseline"])
    def test_overflowing_classifier_fails_the_evaluation(self, model):
        # the logits overflow to inf; an accuracy read off them means nothing
        cfg = TrainConfig()
        params = init_model(model, cfg, np.random.default_rng(0))
        params["cls.w"][...] = 3e38
        with pytest.raises(NumericError):
            evaluate(params, gen_beacon_dataset(4, seed=1), model, GridSpec(3, 3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_final_evaluation_diverges(self, monkeypatch):
        def step_then_overflow(params, *args):
            sgd_step(params, *args)
            params["cls.w"][...] = 3e38

        monkeypatch.setattr(trainer, "sgd_step", step_then_overflow)
        with pytest.raises(DivergenceError, match="final evaluation") as info:
            train("snl", TrainConfig(max_iter=1, batch=1, n_images=1, n_eval=2))
        assert info.value.iteration == 1
        assert (info.value.last_good["cls.w"] == np.float32(3e38)).all()

    def test_log_csv_round_trip(self, tmp_path):
        cfg = TrainConfig(max_iter=3, batch=2, n_images=4, n_eval=2)
        log, _ = train("snl", cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,lr,loss,accuracy,mean_abs_offset"
        assert len(lines) == 4
