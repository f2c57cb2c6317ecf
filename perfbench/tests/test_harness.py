"""Tests of the benchmark harness: checks catch wrong outputs, counts and
names hold, and the tracer leaves the package as it found it.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snlblock
import snlblock.cli  # noqa: F401  (workloads reach the CLI as snlblock.cli)

import run
from harness import METRIC_NAME, Samples, Tally, result_line
from tracer import Tracer
from workloads import CliFlow, GradcheckSmall, PaperBlock

ROOT = Path(__file__).resolve().parents[2]


class SmallPaper(PaperBlock):
    """paper-block's loop and checks on a map small enough for a unit test."""
    C, H, W, KH, KW = 8, 7, 7, 3, 3


def drive(wl, ops=2, tracer=None):
    wl.setup()
    times = {False: [], True: []}
    for i in range(ops):
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install(snlblock)
            wl.tracer = tracer
        try:
            wl.op()
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
        times[traced].append(1.0)
    wl.finish()
    return wl.tally(), times


def test_clean_run_has_no_failures(tmp_path):
    tally, _ = drive(SmallPaper(snlblock, 0, tmp_path), ops=3)
    assert tally.attempted == 12 and tally.failed == 0


def test_cli_flow_runs_both_parts_into_one_record(tmp_path):
    wl = CliFlow(snlblock, 0, tmp_path)
    tally, _ = drive(wl, ops=1)
    assert tally.failed == 0
    assert set(wl.op_counts()) == {"train", "dump-attention", "gradcheck seed 0", "forward pair"}
    assert {"dump_ms", "train_iter_ms", "seed_ms", "fwd_pair_ms"} <= set(wl.samples)
    assert set(wl.e2e()) == {"fwd_ms", "step_ms"}


def test_perturbed_forward_fails_every_call(tmp_path, monkeypatch):
    original = snlblock.sparse.snl_forward

    def off_by_a_little(*args, **kwargs):
        z, acts = original(*args, **kwargs)
        return z + np.float32(1e-3), acts

    monkeypatch.setattr(snlblock.sparse, "snl_forward", off_by_a_little)
    wl = SmallPaper(snlblock, 0, tmp_path)
    tally, _ = drive(wl, ops=3)
    assert tally.failed == 3
    assert set(tally.reasons) == {"snl_forward"}


def test_forward_that_drifts_between_calls_fails(tmp_path, monkeypatch):
    original = snlblock.sparse.snl_forward
    calls = []

    def drifting(*args, **kwargs):
        z, acts = original(*args, **kwargs)
        calls.append(1)
        # call 1 is the set-up's warm-up; call 3, the second timed one, drifts
        if len(calls) == 3:
            z = z.copy()
            z.flat[0] = np.nextafter(z.flat[0], np.float32(np.inf))
        return z, acts

    monkeypatch.setattr(snlblock.sparse, "snl_forward", drifting)
    tally, _ = drive(SmallPaper(snlblock, 0, tmp_path), ops=3)
    assert tally.failed == 1 and tally.reasons == ["snl_forward"]


@pytest.mark.parametrize("module,name", [("sparse", "snl_backward"), ("dense", "nl_backward")])
def test_perturbed_backward_fails(tmp_path, monkeypatch, module, name):
    original = getattr(getattr(snlblock, module), name)

    def scaled(*args, **kwargs):
        grad_x, grads = original(*args, **kwargs)
        return grad_x * np.float32(1.01), grads

    monkeypatch.setattr(getattr(snlblock, module), name, scaled)
    tally, _ = drive(SmallPaper(snlblock, 0, tmp_path), ops=2)
    assert tally.failed == 2 and set(tally.reasons) == {name}


def test_wrong_multiply_count_fails(tmp_path, monkeypatch):
    original = snlblock.sparse.snl_forward

    def extra_work(*args, **kwargs):
        snlblock.tensor.tally_multiplies(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(snlblock.sparse, "snl_forward", extra_work)
    tally, _ = drive(SmallPaper(snlblock, 0, tmp_path), ops=2)
    assert tally.failed == 2
    assert all(r.startswith("snl_forward: counted") for r in tally.reasons)


def test_nonzero_cli_exit_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(snlblock.cli, "main", lambda argv: 1)
    tally, _ = drive(GradcheckSmall(snlblock, 0, tmp_path), ops=2)
    assert tally.failed == 2 and tally.attempted == 4


def test_gradcheck_cycles_through_the_cli_default_seeds(tmp_path, monkeypatch):
    seen = []

    def record(argv):
        seen.append(int(argv[argv.index("--seed") + 1]))
        return 0

    monkeypatch.setattr(snlblock.cli, "main", record)
    drive(GradcheckSmall(snlblock, 98, tmp_path), ops=6)
    assert seen == [3, 3, 4, 0, 1, 2, 3]   # warm-up, then one seed per operation


def test_tracer_counts_and_restores(tmp_path):
    before = {(m, n): getattr(getattr(snlblock, m), n)
              for m, n in (("sparse", "conv1x1"), ("trainer", "snl_forward"),
                           ("gradcheck", "snl_forward"), ("tensor", "matmul"))}
    commands = dict(snlblock.cli.COMMANDS)
    tracer = Tracer()
    wl = GradcheckSmall(snlblock, 0, tmp_path)
    run.attach_counters(tracer, wl)
    tally, times = drive(wl, ops=2, tracer=tracer)
    assert tally.failed == 0
    assert wl.counts_seen["gradcheck.block_forward_calls"] == wl.forward_calls_per_seed() == 694
    assert wl.counts_seen["tensor.core_mults.snl_forward"] == 25 * 9 * 2 + 25 * 9 * 4
    assert wl.counts_seen["tensor.core_mults.nl_forward"] == 81 * 2 + 81 * 4
    for (m, n), fn in before.items():
        assert getattr(getattr(snlblock, m), n) is fn
    assert snlblock.cli.COMMANDS == commands
    metrics = run.layer_metrics(tracer, wl, times)
    self_ms = [v for k, (v, _) in metrics.items() if k.endswith(".self_ms")]
    assert all(v >= 0 for v in self_ms) and metrics["sparse.bilinear_sample.self_ms"][0] > 0


def test_metric_names_are_valid_and_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) and len(n) <= 64 for n in names)

    tracer = Tracer()
    wl = SmallPaper(snlblock, 0, tmp_path)
    run.attach_counters(tracer, wl)
    _, times = drive(wl, ops=2, tracer=tracer)
    layer = run.layer_metrics(tracer, wl, times)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = run.e2e_metrics(wl, 1.0, 1.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_result_line_rejects_bad_names():
    with pytest.raises(ValueError):
        result_line(Tally(), {"bad name": (1.0, "ms")})
    line = json.loads(result_line(Tally(), {"ok.name-1": (1.0, "ms")}))
    assert line == {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {"ok.name-1": {"value": 1.0, "unit": "ms"}}}


def test_tail_percentile_keeps_ten_samples_beyond():
    s = Samples()
    for v in range(10):
        s.add(float(v))
    assert s.tail() is None
    for v in range(10, 50):
        s.add(float(v))
    pct, value = s.tail()
    assert pct == 80 and value == 39.0
    assert sum(v > value for v in s.values) == 10


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-block",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
