import csv

import numpy as np
import pytest

from snlblock import gradcheck, trainer
from snlblock.cli import attention_csv_lines, main
from snlblock.sparse import GridSpec, SnlParams, snl_backward, snl_forward
from snlblock.tensorio import write_tensor


def run(args):
    return main(args)


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_zero_threshold_fails(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "DENSE_THRESHOLD", 0.0)
        monkeypatch.setattr(gradcheck, "SNL_THRESHOLD", 0.0)
        assert run(["gradcheck", "--seeds", "1"]) == 1

    def test_tripled_gradient_fails(self, monkeypatch, capsys):
        def tripled_w_theta(acts, p, x, grad_z):
            grad_x, grads = snl_backward(acts, p, x, grad_z)
            grads["w_theta"] *= 3
            return grad_x, grads

        monkeypatch.setattr(gradcheck, "snl_backward", tripled_w_theta)
        assert run(["gradcheck", "--seeds", "1"]) == 1
        fails = [line.split()[:3] for line in capsys.readouterr().out.splitlines()
                 if line.endswith("FAIL")]
        assert fails == [["snl", "seed=0", "w_theta"]]

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seed_is_a_config_error(self, seeds, tmp_path, capsys):
        # a check of no seed would report nothing and pass
        assert run(["gradcheck", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: seeds must be at least 1, got {seeds}\n"
        cfg = tmp_path / "none.cfg"
        cfg.write_text(f"seeds={seeds}\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 2

    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\nseeds=1\nc=4\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("args, error", [
        (["--c", "0"], "config error: channel count"),
        (["--c", "-2"], "config error: channel count"),
        (["--n", "0"], "input error: expected C x N input with N >= 1"),
        (["--kh", "0"], "config error: window extents"),
        (["--kw", "0"], "config error: window extents"),
        (["--n", "-1"], "input error: expected C x N input with N >= 1"),
        (["--h", "-1"], "config error: degenerate shape"),
        (["--w", "-1"], "config error: degenerate shape"),
    ])
    def test_bad_sizes_and_steps_are_errors_where_they_enter(self, args, error, capsys):
        assert run(["gradcheck", "--seeds", "1", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(error) and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [["--h", "-1"], ["--w", "-1"], ["--kh", "9"],
                                      ["--kw", "9"]])
    def test_bad_sparse_size_prints_no_dense_line(self, args, capsys):
        # the dense block runs first; the sparse block's sizes are
        # checked before it prints anything
        assert run(["gradcheck", "--seeds", "1", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and len(captured.err.splitlines()) == 1


class TestEquivCommand:
    def test_double_precision(self, capsys):
        assert run(["equiv", "--c", "4", "--h", "5", "--w", "5",
                    "--precision", "double"]) == 0
        assert "max abs deviation" in capsys.readouterr().out

    def test_single_precision(self):
        assert run(["equiv", "--c", "4", "--h", "5", "--w", "5",
                    "--precision", "single"]) == 0

    def test_one_pixel(self):
        assert run(["equiv", "--c", "2", "--h", "1", "--w", "1"]) == 0

    def test_wrong_k_is_usage_error(self):
        assert run(["equiv", "--h", "5", "--w", "5", "--k", "9"]) == 2

    @pytest.mark.parametrize("args", [["--h", "-1"], ["--w", "-1"]])
    def test_bad_sizes_are_config_errors_where_they_enter(self, args, capsys):
        assert run(["equiv", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: degenerate shape")
        assert len(captured.err.splitlines()) == 1 and not captured.out

    def test_zero_channels_is_config_error(self, capsys):
        assert run(["equiv", "--c", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: channel count")

    def test_unknown_precision_is_config_error(self, capsys):
        assert run(["equiv", "--c", "2", "--h", "2", "--w", "2", "--precision", "foo"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out


class TestBenchCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--grid", "4,6,8", "--k", "9", "--c", "8",
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6  # two block kinds x three shapes
        assert {r["block"] for r in rows} == {"dense-nl", "snl"}
        for r in rows:
            assert int(r["multiplies"]) > 0

    def test_bad_grid(self):
        assert run(["bench", "--grid", "abc"]) == 2

    @pytest.mark.parametrize("grid", ["-4", "0", "4,0,8", "", ","])
    def test_grid_side_below_one_is_config_error(self, grid, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", f"--grid={grid}", "--k", "9", "--c", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


    @pytest.mark.parametrize("args", [["--k", "0"], ["--k", "-1"], ["--c", "0"],
                                      ["--c", "3"]])
    def test_k_and_c_no_block_accepts_are_config_errors(self, args, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--grid", "4", "--k", "9", "--c", "4", *args,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestTrainCommand:
    def test_short_run_writes_log_and_params(self, tmp_path):
        out = tmp_path / "log.csv"
        pdir = tmp_path / "params"
        assert run(["train", "--max-iter", "3", "--batch", "2",
                    "--n-images", "4", "--n-eval", "2",
                    "--out", str(out), "--params-out", str(pdir)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert float(rows[0]["mean_abs_offset"]) == 0.0
        assert (pdir / "head_w_offset.snlt").exists()

    def test_bad_model(self):
        assert run(["train", "--model", "nonsense", "--max-iter", "1"]) == 2

    @pytest.mark.parametrize("args", [
        ["--batch", "0", "--max-iter", "2", "--n-images", "4", "--n-eval", "2"],
        ["--n-images", "0", "--max-iter", "1", "--n-eval", "2"],
        ["--n-eval", "0", "--max-iter", "1", "--n-images", "4"],
        ["--max-iter", "0", "--n-images", "4", "--n-eval", "2"]])
    def test_sizes_below_one_are_config_errors(self, args, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert run(["train", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--features", "0"], ["--momentum", "nan"],
                                      ["--weight-decay", "nan"], ["--base-lr", "inf"]])
    def test_bad_settings_are_config_errors_before_any_work(self, args, tmp_path, capsys,
                                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "gen_beacon_dataset", no_work)
        out = tmp_path / "log.csv"
        assert run(["train", *args, "--max-iter", "1", "--n-images", "2", "--n-eval", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_divergence_is_a_failed_check(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert run(["train", "--base-lr", "1e9", "--max-iter", "5", "--n-images", "4",
                    "--n-eval", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "diverged at iteration 1" in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestDumpAttention:
    def test_missing_input(self):
        assert run(["dump-attention", "--input", "/nonexistent.snlt"]) == 2

    def test_zero_offset_dump(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        inp = tmp_path / "x.snlt"
        write_tensor(inp, x)
        out = tmp_path / "attn.csv"
        assert run(["dump-attention", "--input", str(inp), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 25 * 9
        # zero-offset coordinates form the regular 3x3 window
        center = [r for r in rows if r["query"] == "12"]  # pixel (2, 2)
        xs = sorted({float(r["t_x"]) for r in center})
        assert xs == [1.0, 2.0, 3.0]
        # affinities per query sum to 1
        sums = {}
        for r in rows:
            sums[r["query"]] = sums.get(r["query"], 0.0) + float(r["s"])
        assert all(abs(s - 1.0) < 1e-6 for s in sums.values())

    def test_missing_params_file(self, tmp_path, capsys):
        inp = tmp_path / "x.snlt"
        write_tensor(inp, np.zeros((4, 5, 5), dtype=np.float32))
        assert run(["dump-attention", "--input", str(inp), "--params-dir",
                    str(tmp_path), "--out", str(tmp_path / "attn.csv")]) == 2
        err = capsys.readouterr().err
        assert "head_w_theta.snlt" in err and len(err.splitlines()) == 1

    def test_channel_mismatch(self, tmp_path, capsys):
        params = SnlParams.random(np.random.default_rng(0), 8, 9)
        for name, arr in params.param_groups().items():
            write_tensor(tmp_path / f"head_{name}.snlt", arr)
        inp = tmp_path / "x.snlt"
        write_tensor(inp, np.zeros((4, 5, 5), dtype=np.float32))
        assert run(["dump-attention", "--input", str(inp), "--params-dir",
                    str(tmp_path), "--out", str(tmp_path / "attn.csv")]) == 2
        err = capsys.readouterr().err
        assert "channels" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["b_gamma", "w_offset"])
    def test_non_finite_params_file_is_config_error(self, name, tmp_path, capsys):
        params = SnlParams.random(np.random.default_rng(0), 4, 9)
        for group, arr in params.param_groups().items():
            if group == name:
                arr = arr.copy()
                arr[1] = np.nan
            write_tensor(tmp_path / f"head_{group}.snlt", arr)
        inp = tmp_path / "x.snlt"
        write_tensor(inp, np.zeros((4, 5, 5), dtype=np.float32))
        out = tmp_path / "attn.csv"
        assert run(["dump-attention", "--input", str(inp), "--params-dir",
                    str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: non-finite {name}\n"
        assert not out.exists()

    def test_non_finite_input_is_input_error(self, tmp_path, capsys):
        x = np.zeros((4, 5, 5), dtype=np.float32)
        x[1, 2, 3] = np.nan
        inp = tmp_path / "x.snlt"
        write_tensor(inp, x)
        assert run(["dump-attention", "--input", str(inp),
                    "--out", str(tmp_path / "attn.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "non-finite" in err
        assert len(err.splitlines()) == 1

    def test_uniform_keys_give_uniform_affinity(self, tmp_path):
        x = np.ones((4, 4, 4), dtype=np.float32)
        inp = tmp_path / "x.snlt"
        write_tensor(inp, x)
        out = tmp_path / "attn.csv"
        assert run(["dump-attention", "--input", str(inp), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        inner = [r for r in rows if r["query"] == "5"]  # all 9 taps in bounds
        for r in inner:
            assert float(r["s"]) == pytest.approx(1.0 / 9, abs=1e-6)

    def test_table_matches_per_row_formatting(self, tmp_path):
        # large offsets push samples to negative and out-of-image
        # coordinates; the file must be byte-identical to formatting
        # each (query, slot) row on its own
        rng = np.random.default_rng(3)
        params = SnlParams.random(rng, 4, 9, scale=2.0, zero_gamma=False,
                                  zero_offset=False)
        for name, arr in params.param_groups().items():
            write_tensor(tmp_path / f"head_{name}.snlt", arr)
        x = rng.standard_normal((4, 3, 5)).astype(np.float32)
        write_tensor(tmp_path / "x.snlt", x)
        out = tmp_path / "attn.csv"
        assert run(["dump-attention", "--input", str(tmp_path / "x.snlt"),
                    "--params-dir", str(tmp_path), "--out", str(out)]) == 0

        _, acts = snl_forward(x, params, GridSpec(3, 3))
        coords = acts.coords
        assert (coords < 0).any() and (coords[..., 0] > 4).any() and (coords[..., 1] > 2).any()
        expected = "query,slot,t_x,t_y,s\n"
        for i in range(15):
            for j in range(9):
                expected += (f"{i},{j},{coords[i, j, 0]:.6g},{coords[i, j, 1]:.6g},"
                             f"{acts.affinity[i, j]:.8g}\n")
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", [2, 600])
    def test_table_formats_like_per_row(self, n):
        # 600 queries span several of the writer's blocks
        rng = np.random.default_rng(n)
        coords = rng.standard_normal((n, 3, 2)) * 10.0 ** rng.integers(-8, 22, (n, 3, 2))
        coords[0, 0] = [-0.0, np.inf]
        coords[1, 1] = [np.nan, -1234567.5]
        affinity = rng.random((n, 3)).astype(np.float32)
        affinity[0, 2] = 2.5e-12
        expected = "query,slot,t_x,t_y,s\n" + "".join(
            f"{i},{j},{coords[i, j, 0]:.6g},{coords[i, j, 1]:.6g},{affinity[i, j]:.8g}\n"
            for i in range(n) for j in range(3))
        assert "".join(attention_csv_lines(coords, affinity)) == expected


@pytest.mark.parametrize("command", [
    ["gradcheck", "--seeds", "1"],
    ["equiv"],
    ["bench", "--grid", "4,6,8", "--k", "9", "--c", "8"],
    ["train", "--max-iter", "1", "--n-images", "2", "--n-eval", "1"],
    ["dump-attention"]], ids=lambda command: command[0])
def test_negative_seed_is_a_config_error(command, tmp_path, capsys):
    # numpy's generators reject negative seeds with a ValueError; the CLI
    # must reject them as configuration, before any work
    x = tmp_path / "x.snlt"
    write_tensor(x, np.zeros((4, 5, 5), dtype=np.float32))
    out = tmp_path / "out.csv"
    extra = {"dump-attention": ["--input", str(x)]}.get(command[0], [])
    outputs = [] if command[0] in ("gradcheck", "equiv") else ["--out", str(out)]
    assert run([*command, *extra, *outputs, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("gradcheck", "eps"), ("gradcheck", "dense_threshold"),
                                          ("gradcheck", "snl_threshold"), ("equiv", "tolerance")])
def test_bounds_of_the_checks_cannot_be_set(command, key, tmp_path, capsys):
    # a step of 1e-300 makes the roundoff bound 1.2e+286, so every entry
    # would pass; a threshold or tolerance loosens a check alike
    assert run([command, "--" + key.replace("_", "-"), "1e-300"]) == 2
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(f"{key}=1e-300\n")
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"config error: {cfg}:1: unknown key {key!r}\n")
    assert not captured.out


def test_tensor_round_trip_through_cli_format(tmp_path):
    from snlblock.tensorio import read_tensor
    arr = np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float64)
    path = tmp_path / "t.snlt"
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr)
