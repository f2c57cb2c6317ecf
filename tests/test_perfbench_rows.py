"""perfbench's per-layer rows of the sparse block stay measurable.

perfbench times `snl_forward`'s key read under `sparse.bilinear_sample`,
the name bound in `snlblock.sparse`, and its hooks read the call's first
two arguments as a D x H x W map and N x K x 2 coordinates. The forward
reads a chunk of query bands at a time, so each chunk is one span, and
the hooks' per-call counts must add up to the whole map's.
"""
import sys
from pathlib import Path

import numpy as np

import snlblock
import snlblock.cli  # noqa: F401  (the workloads reach the CLI as snlblock.cli)
from snlblock.sampling import query_chunks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PaperBlock  # noqa: E402


class ChunkedPaper(PaperBlock):
    """paper-block's loop and checks on a map of several chunks."""
    C, H, W, KH, KW = 8, 24, 24, 7, 7


def test_one_key_read_span_per_chunk_and_exact_counts(tmp_path):
    wl = ChunkedPaper(snlblock, 0, tmp_path)
    c, n, k = wl.C, wl.H * wl.W, wl.KH * wl.KW
    chunks = len(query_chunks(n, k, wl.H, wl.W))
    assert chunks > 1

    tracer = Tracer()
    run.attach_counters(tracer, wl)
    wl.setup()
    for traced in (True, False):
        if traced:
            tracer.install(snlblock)
            wl.tracer = tracer
        try:
            wl.op()
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
    wl.finish()
    assert wl.tally().failed == 0

    calls = tracer.calls()
    assert calls["sparse.bilinear_sample"] == chunks
    assert calls["sparse.bilinear_sample_backward"] == 2 * chunks
    assert tracer.self_ms()["sparse.bilinear_sample"] > 0
    # the traced call's count (tracer hook) and the untraced one's
    # (MultiplyCounter around the forward): N K C/2 + N K C
    mults = n * k * (c // 2) + n * k * c
    assert wl.counts_seen["tensor.core_mults.snl_forward"] == mults
    assert wl.counts_seen["snl_forward"] == mults == oracle.snl_core_mults(n, k, c)
    # the hooks' per-chunk counts add up to the whole map's
    assert tracer.counts["sparse.oob.attempted"] == 4 * n * k
    assert tracer.counts["sparse.bilinear_sample.bytes"] == oracle.bilinear_bytes(
        c // 2, n, k, np.dtype(np.float32).itemsize, np.dtype(np.float32).itemsize)
