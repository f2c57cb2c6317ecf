"""Span tracer installed around snlblock's public functions from outside.

``Tracer.install(package)`` replaces every binding of a traced function,
in every snlblock module that holds it (``snlblock.sparse.conv1x1``,
``snlblock.trainer.snl_forward``, ``snlblock.cli.COMMANDS[...]`` ...),
with a wrapper that records a span: name, start, end and parent. Spans
stay in memory; ``self_ms`` subtracts the time covered by child spans.
``uninstall()`` puts every original binding back, so the program runs
untouched between traced operations.

Wrappers may also record counts at the same boundary (multiplies,
computed bytes, masked corner reads). The time spent computing them is
charged to no span: it is added to the parent's child time, so it shows
only in the measured tracing overhead.
"""
from __future__ import annotations

import importlib
import time
import tracemalloc
import types
from collections import defaultdict

# layer -> public functions traced at its boundary
LAYERS = {
    "tensor": ("matmul", "softmax_rows", "conv1x1"),
    "dense": ("dense_affinity", "dense_aggregate", "fuse_residual",
              "softmax_rows_backward", "nl_forward", "nl_backward"),
    "sparse": ("base_grid", "offset_head", "apply_offsets", "bilinear_sample",
               "bilinear_sample_backward", "sparse_affinity", "sparse_aggregate",
               "snl_forward", "snl_backward"),
    "trainer": ("gen_beacon_dataset", "conv3x3", "conv3x3_backward",
                "forward_backward", "sgd_step", "evaluate", "train"),
    "tensorio": ("write_tensor", "read_tensor"),
    "gradcheck": ("central_diff", "check_block"),
    "cli": ("main", "cmd_gradcheck", "cmd_train", "cmd_dump_attention"),
}

# spans whose tracemalloc peak is taken on their first top-level call
PEAK_TRACKED = ("sparse.snl_forward", "sparse.snl_backward")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name: str, parent: "Span | None", start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks_mb: dict[str, float] = {}
        self.calls_via: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[Span] = []
        self._saved: list[tuple[object, object, object]] = []
        self._hooks: dict[str, object] = {}

    def on_call(self, name: str, hook, around=None) -> None:
        """Run hook(args, kwargs, result, ctx) after each call of name.

        around, if given, makes a context manager entered around the call
        (e.g. a multiply counter); it is passed to the hook as ctx.
        """
        self._hooks[name] = (hook, around)

    # -- installation ----------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        modules = {"": package}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
        originals = {}
        for layer, names in LAYERS.items():
            for name in names:
                originals[id(getattr(modules[layer], name))] = (
                    f"{layer}.{name}", getattr(modules[layer], name))
        for where, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    full, fn = originals[id(value)]
                    self._patch(mod, attr, self._wrap(full, fn, where))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            full, fn = originals[id(item)]
                            self._patch(value, key, self._wrap(full, fn, where))

    def _patch(self, holder, key, wrapper) -> None:
        if isinstance(holder, dict):
            self._saved.append((holder, key, holder[key]))
            holder[key] = wrapper
        else:
            self._saved.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._saved.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn, caller: str):
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            tracer.calls_via[(name, caller)] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            measure_peak = (name in PEAK_TRACKED and name not in tracer.peaks_mb
                            and not tracemalloc.is_tracing())
            if measure_peak:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            hook, around = tracer._hooks.get(name, (None, None))
            ctx = around() if around is not None else None
            span = Span(name, parent, time.perf_counter())
            tracer._stack.append(span)
            try:
                if ctx is None:
                    result = fn(*args, **kwargs)
                else:
                    with ctx:
                        result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
                if measure_peak:
                    tracer.peaks_mb[name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                    tracemalloc.stop()
            if hook is not None:
                hook(args, kwargs, result, ctx)
            if parent is not None:
                # the whole wrapper, bookkeeping included, is the parent's
                # child time; bookkeeping outside [start, end] is in no span
                parent.child_s += time.perf_counter() - entered
            return result

        return traced

    # -- reports ---------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start - s.child_s) * 1000.0
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def calls_from(self, caller: str, *names: str) -> int:
        """Calls made through the binding in module `caller` (e.g. "gradcheck")."""
        return sum(n for (name, via), n in self.calls_via.items()
                   if via == caller and name in names)
