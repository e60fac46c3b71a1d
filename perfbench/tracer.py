"""Outside-in span tracer for the shadowstorm benchmark.

The tracer wraps public functions at the module bindings their callers
look up (``bench.pgd_attack``, ``cli.load_pnm``, ``autodiff.conv2d``, ...)
so the program itself is never edited. Each call becomes one span:
name, start, end, parent span and the id of the unit of work it belongs
to (a bench cell, an attack command or a training epoch). Spans stay in
memory; :meth:`Tracer.layer_metrics` turns them into per-unit figures when
the run ends. A layer's self time is its span minus its direct children,
so the self times of one command add up to its root span.

Counters that depend only on argument shapes (conv2d/blur2d operations and
bytes, PRNG values drawn, file bytes) are labelled ``_computed`` or are
exact counts; none of them is a hardware measurement.
"""

from __future__ import annotations

import functools
import os
import zlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, fields reported per unit of work). "ms" is inclusive time,
# "self_ms" excludes child spans; extra counters are listed by name.
LAYERS = (
    ("cli.main", ("calls", "ms", "self_ms")),
    ("models.load_model", ("ms",)),
    ("synthdata.load_triplet_dir", ("ms", "self_ms")),
    ("imagecore.load_pnm", ("calls", "ms", "bytes")),
    ("imagecore.load_mask", ("calls", "ms", "bytes")),
    ("imagecore.save_pnm", ("calls", "ms", "bytes")),
    ("bench.evaluate_cell", ("calls", "self_ms")),
    ("attack.pgd_attack", ("calls", "ms", "self_ms")),
    ("attack.budget_box", ("ms",)),
    ("attack.init_delta", ("ms", "self_ms")),
    ("rng.fill", ("calls", "values", "ms")),
    ("models.forward", ("calls", "ms", "self_ms")),
    ("models.input_grad", ("calls", "ms", "self_ms")),
    ("models.train_toy", ("ms", "self_ms")),
    ("models.save_params", ("ms",)),
    ("autodiff.conv2d", ("calls", "self_ms", "flops_computed", "bytes_computed")),
    ("autodiff.conv2d_vjp", ("calls", "self_ms")),
    ("autodiff.blur2d", ("calls", "self_ms", "flops_computed", "bytes_computed")),
    ("autodiff.blur2d_vjp", ("calls", "self_ms")),
    ("autodiff.backward", ("calls", "self_ms")),
    ("metrics.psnr", ("calls", "ms")),
    ("metrics.ssim", ("calls", "ms")),
    ("metrics.perturbation_norms", ("ms",)),
    ("bench.write_csv", ("ms",)),
    ("bench.write_plot_data", ("ms",)),
    ("trace.hash", ("ms",)),
)

# Metrics that are not per-span fields; see Tracer.layer_metrics.
EXTRA_METRICS = (
    ("models.forward_useful_ratio", "ratio"),
    ("models.param_grad_leak", "count"),
    ("synthdata.gen_dataset.ms", "ms"),
    ("trace.wall_ms", "ms/unit"),
    ("trace.spans", "count/unit"),
    ("trace.overhead_ms", "ms/unit"),
)

_FIELD_UNITS = {"calls": "count/unit", "ms": "ms/unit", "self_ms": "ms/unit",
                "values": "count/unit", "bytes": "B/unit",
                "flops_computed": "flop/unit", "bytes_computed": "B/unit"}


def metric_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{name}.{field}", _FIELD_UNITS[field])
           for name, fields in LAYERS for field in fields]
    return out + list(EXTRA_METRICS)


class Tracer:
    """Span recorder; one per traced process, single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit]
        self._stack: list[int] = []
        self.unit = 0
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.measure_from = 0
        self._seen_inputs: set[tuple] = set()
        self._models: list = []
        self.param_grad_leak = 0

    # -- recording -----------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, field: str, amount: float) -> None:
        self.counters[(name, field)] += amount

    def next_unit(self) -> None:
        self.unit += 1

    def start_measuring(self) -> None:
        """Spans and counters from here on belong to measured units."""
        self.measure_from = len(self.spans)
        self.counters.clear()

    def begin_command(self) -> None:
        self._seen_inputs.clear()
        self._models.clear()

    def end_command(self) -> None:
        """Record how many parameter tensors an attack left a .grad on."""
        for model in self._models:
            params = getattr(model, "params", {})
            leaked = sum(p.grad is not None for p in params.values())
            self.param_grad_leak = max(self.param_grad_leak, leaked)

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """Traced stand-in for fn. `before(args, kwargs)` runs outside the
        span; `after(result, args, kwargs)` runs after it closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def _note_forward_input(self, image) -> None:
        """Count a model forward pass; a pass is useful the first time its
        input bytes appear within the current command."""
        def key():
            data = image.data
            return (data.shape, zlib.crc32(memoryview(data)))
        self.count("models.forward_pass", "attempted", 1)
        k = self.call("trace.hash", key)
        if k not in self._seen_inputs:
            self._seen_inputs.add(k)
            self.count("models.forward_pass", "useful", 1)

    def install(self) -> None:
        """Wrap every traced binding in the imported shadowstorm modules."""
        from shadowstorm import (attack, autodiff, bench, cli, imagecore,
                                 metrics, models, rng, synthdata)

        def rebind(module, attr, name, **hooks):
            setattr(module, attr,
                    self.wrap(name, getattr(module, attr), **hooks))

        def file_bytes(name, path_arg):
            def after(_result, args, kwargs):
                path = args[path_arg] if len(args) > path_arg else None
                if path is not None and os.path.exists(path):
                    self.count(name, "bytes", os.path.getsize(path))
            return after

        for module in (cli, synthdata):
            rebind(module, "load_pnm", "imagecore.load_pnm",
                   after=file_bytes("imagecore.load_pnm", 0))
            rebind(module, "load_mask", "imagecore.load_mask",
                   after=file_bytes("imagecore.load_mask", 0))
        for module in (cli, synthdata, imagecore):
            rebind(module, "save_pnm", "imagecore.save_pnm",
                   after=file_bytes("imagecore.save_pnm", 1))
        rebind(cli, "load_triplet_dir", "synthdata.load_triplet_dir")
        rebind(cli, "gen_dataset", "synthdata.gen_dataset")
        rebind(cli, "save_params", "models.save_params")
        rebind(cli, "load_model", "models.load_model",
               after=lambda model, _a, _k: self._models.append(model))

        def train_before(args, kwargs):
            on_epoch = kwargs.get("on_epoch")

            def epoch_done(epoch, loss):
                self.next_unit()
                if on_epoch is not None:
                    on_epoch(epoch, loss)
            kwargs["on_epoch"] = epoch_done
        rebind(cli, "train_toy", "models.train_toy", before=train_before)

        def cell_before(_args, _kwargs):
            self.next_unit()
        rebind(bench, "evaluate_cell", "bench.evaluate_cell",
               before=cell_before)
        for module in (bench, cli):
            rebind(module, "pgd_attack", "attack.pgd_attack")
        rebind(attack, "budget_box", "attack.budget_box")
        rebind(attack, "init_delta", "attack.init_delta")
        for module in (bench, metrics):
            rebind(module, "psnr", "metrics.psnr")
            rebind(module, "ssim", "metrics.ssim")
            rebind(module, "perturbation_norms", "metrics.perturbation_norms")
        rebind(bench, "write_csv", "bench.write_csv")
        rebind(bench, "write_plot_data", "bench.write_plot_data")

        def fill_before(args, _kwargs):
            self.count("rng.fill", "values", int(np.prod(args[1])))
        rebind(rng.Xoshiro256StarStar, "fill", "rng.fill", before=fill_before)

        rebind(models.TapeModel, "forward", "models.forward",
               before=lambda args, _k: self._note_forward_input(args[1]))
        rebind(models.TapeModel, "input_grad", "models.input_grad",
               before=lambda args, _k: self._note_forward_input(args[1]))
        rebind(autodiff.Tensor, "backward", "autodiff.backward")

        def conv_counts(args, kwargs):
            x, kernel = args[0].data, args[1].data
            bias = args[2] if len(args) > 2 else kwargs.get("bias")
            h, w, cin = x.shape
            kh, kw, _, cout = kernel.shape
            self.count("autodiff.conv2d", "flops_computed",
                       2 * h * w * kh * kw * cin * cout
                       + (h * w * cout if bias is not None else 0))
            self.count("autodiff.conv2d", "bytes_computed",
                       8 * (x.size + kernel.size + h * w * cout
                            + (cout if bias is not None else 0)))

        def blur_counts(args, _kwargs):
            x, kern = args[0].data, np.asarray(args[1])
            self.count("autodiff.blur2d", "flops_computed",
                       2 * x.size * kern.size)
            self.count("autodiff.blur2d", "bytes_computed",
                       8 * (2 * x.size + kern.size))

        def traced_vjp(name):
            def after(out, _args, _kwargs):
                back = out._backward
                if back is not None:
                    out._backward = functools.partial(self.call, name, back)
            return after

        rebind(autodiff, "conv2d", "autodiff.conv2d", before=conv_counts,
               after=traced_vjp("autodiff.conv2d_vjp"))
        rebind(autodiff, "blur2d", "autodiff.blur2d", before=blur_counts,
               after=traced_vjp("autodiff.blur2d_vjp"))

    # -- reporting -----------------------------------------------------
    def span_cost_ms(self, calls: int = 20000) -> float:
        """Wall time one traced call adds, from wrapping a no-op; spans
        recorded here are dropped again."""
        noop = self.wrap("trace.calibrate", lambda: None)
        mark = len(self.spans)
        started = perf_counter()
        for _ in range(calls):
            noop()
        per_call = (perf_counter() - started) * 1000.0 / calls
        del self.spans[mark:]
        started = perf_counter()
        for _ in range(calls):
            (lambda: None)()
        return per_call - (perf_counter() - started) * 1000.0 / calls

    def layer_metrics(self, units: int, wall_ms: float
                      ) -> dict[str, dict[str, float | str]]:
        """Per-unit layer figures over the measured spans.

        `units` is the number of cells or epochs completed in the measured
        commands and `wall_ms` their summed wall time.
        """
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        for i, (_name, start, end, parent, _unit) in enumerate(self.spans):
            dur[i] = (end - start) * 1000.0
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        selft: dict[str, float] = defaultdict(float)
        gen_ms = 0.0
        for i, rec in enumerate(self.spans):
            name = rec[0]
            if i < self.measure_from:
                if name == "synthdata.gen_dataset":
                    gen_ms += dur[i]
                continue
            calls[name] += 1
            incl[name] += dur[i]
            selft[name] += dur[i] - child[i]

        per = 1.0 / max(units, 1)
        values: dict[str, float] = {}
        for name, fields in LAYERS:
            for field in fields:
                if field == "calls":
                    v = calls[name]
                elif field == "ms":
                    v = incl[name]
                elif field == "self_ms":
                    v = selft[name]
                else:
                    v = self.counters[(name, field)]
                values[f"{name}.{field}"] = v * per
        attempted = self.counters[("models.forward_pass", "attempted")]
        useful = self.counters[("models.forward_pass", "useful")]
        values["models.forward_useful_ratio"] = (useful / attempted
                                                 if attempted else 0.0)
        values["models.param_grad_leak"] = float(self.param_grad_leak)
        values["synthdata.gen_dataset.ms"] = gen_ms
        values["trace.wall_ms"] = wall_ms * per
        values["trace.spans"] = (n - self.measure_from) * per
        # hashing forward inputs is its own span; every span costs one
        # wrapper call on top
        values["trace.overhead_ms"] = (values["trace.spans"]
                                       * self.span_cost_ms()
                                       + values["trace.hash.ms"])
        units_of = dict(metric_catalogue())
        return {name: {"value": v, "unit": units_of[name]}
                for name, v in values.items()}
