"""Per-layer tracing of ``qvotes`` from outside the package.

The tracer replaces public functions by timing wrappers *at the name the
caller looks up*: ``cli`` imports ``load_ratings`` or ``run_sweep`` by
name, so patching only the defining module would miss those calls.  Each
wrapper records a span (layer, start, end, parent, exception) on a
per-thread stack.  A layer's self time is its span's duration minus the
time covered by its child spans.  Spans of all threads go into one list
(``list.append`` is atomic under the interpreter lock), stay in memory,
and are written to ``spans.csv`` when the run ends.  A target name that
no longer exists is reported as missing, not as an error, so the tracer
outlives refactors that delete functions.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

# (module, attribute) pairs, at the names the callers look up.
TARGETS = (
    ("qvotes.cli", "load_ratings"),
    ("qvotes.cli", "load_reference"),
    ("qvotes.cli", "run_sweep"),
    ("qvotes.cli", "write_manifest"),
    ("qvotes.cli", "fit_power_model"),
    ("qvotes.simulate", "run_sweep"),
    ("qvotes.simulate", "certainty_gain"),
    ("qvotes.simulate", "bootstrap_ci_mos"),
    ("qvotes.simulate", "write_curves_csv"),
    ("qvotes.simulate", "write_curves_json"),
    ("qvotes.stats", "srcc"),
    ("qvotes.stats", "rmse"),
    ("qvotes.stats", "fit_line"),
    ("qvotes.stats", "dataset_mos"),
)


class Span:
    __slots__ = ("layer", "parent", "start", "end", "child_s", "error")

    def __init__(self, layer: str, parent: Span | None):
        self.layer = layer
        self.parent = parent  # the enclosing span on the same thread
        self.start = self.end = self.child_s = 0.0
        self.error: str | None = None  # exception class name, if the call raised

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)


def layer_name(fn) -> str:
    """``qvotes.data.load_ratings`` -> ``data.load_ratings``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Installs wrappers on ``TARGETS`` for the lifetime of ``installed()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _enter(self, layer: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(layer, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def wrap(self, fn):
        """``fn`` recording one span per call, named by ``layer_name``."""
        layer = layer_name(fn)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = enter(layer)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                exit_(s)

        return wrapper

    @contextmanager
    def installed(self):
        originals = []
        self.missing = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layers(self) -> dict[str, LayerStats]:
        out: dict[str, LayerStats] = {}
        for s in self.spans:
            st = out.setdefault(s.layer, LayerStats())
            st.calls += 1
            st.self_s += s.self_s
            st.total_s += s.end - s.start
            if s.error:
                st.errors[s.error] = st.errors.get(s.error, 0) + 1
        return out

    def write_csv(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,layer,parent,start_s,end_s,self_s,error\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else index[id(s.parent)]
                fh.write(
                    f"{i},{s.layer},{parent},{s.start - t0:.9f},{s.end - t0:.9f},"
                    f"{s.self_s:.9f},{s.error or ''}\n"
                )


# -- the traced run -----------------------------------------------------------

THREADS_ENV = "QVOTES_THREADS"
DRAW_PROBE_N = 100
# One single-metric sweep per metric family, for the per-run-condition table.
PROBE_METRICS = {
    "validity": ("validity_srcc", "validity_rmse"),
    "gain": ("gain_srcc", "gain_rmse"),
    "ci_width": ("ci_width",),
    "irr": ("irr",),
}


def _set_one_worker(one: bool) -> None:
    if one:
        os.environ[THREADS_ENV] = "1"
    else:
        os.environ.pop(THREADS_ENV, None)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _cpu_s() -> float:
    """CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_traced(job, seconds: float, smoke: bool):
    """Per-layer figures for one workload, in this process.

    Each cycle runs the sweep untraced with one worker, untraced with the
    default worker count (their ratio is the thread speed-up, and their
    outputs must match byte for byte), then traced with one worker followed
    by the traced fits.  Cycles repeat for ``seconds``; times are reported
    as medians over cycles, and counts must repeat exactly.  Probes after
    the cycles time sampling and each metric family on their own.
    """
    t0 = time.perf_counter()
    import qvotes.cli as cli

    import_s = time.perf_counter() - t0
    from qvotes import simulate

    saved_threads = os.environ.get(THREADS_ENV)
    problems: list[str] = []
    cycles: list[dict[str, float]] = []
    first_counts = first_bytes = None
    attempted = failed = 0
    stop = time.monotonic() + seconds
    log = open(job.work / "cli.log", "a", encoding="utf-8")
    try:
        with redirect_stdout(log), redirect_stderr(log):
            while not cycles or time.monotonic() < stop:
                walls, cpus = {}, {}
                for label, one in (("one", True), ("default", False)):
                    _set_one_worker(one)
                    job.clear_outputs()
                    cpu0 = _cpu_s()
                    code, walls[label] = _timed(cli.main, job.simulate_argv())
                    cpus[label] = _cpu_s() - cpu0
                    attempted += 1
                    got = job.output_bytes()
                    first_bytes = first_bytes or got
                    if code != 0 or got != first_bytes:
                        failed += 1
                        problems.append(f"untraced {label}-worker sweep: exit {code} or outputs differ")

                _set_one_worker(True)
                job.clear_outputs()
                tracer = Tracer()
                main = tracer.wrap(cli.main)  # root span: time in the cli layer itself
                with tracer.installed():
                    codes = [main(job.simulate_argv())]
                    root = tracer.spans[0]
                    sweep_spans = len(tracer.spans)
                    codes += [main(argv) for argv in job.fit_argvs()]
                attempted += 1
                if any(codes) or job.output_bytes() != first_bytes:
                    failed += 1
                    problems.append(f"traced sweep and fits: exit codes {codes} or outputs differ from untraced")
                self_sum = sum(s.self_s for s in tracer.spans[:sweep_spans])
                if abs(self_sum - (root.end - root.start)) > 1e-6:
                    problems.append(f"span self times sum to {self_sum}, not the traced wall time")
                layers = tracer.layers()
                counts = {k: (v.calls, v.errors) for k, v in layers.items()}
                first_counts = first_counts or counts
                if counts != first_counts:
                    problems.append("layer call counts differ between identical traced sweeps")
                cycles.append(_cycle_metrics(layers, walls, cpus, root.end - root.start))
            problems += job.check_outputs()
            if problems and not failed:
                failed = 1
            tracer.write_csv(job.work / "spans.csv")
            _set_one_worker(True)
            probes = _probes(job, simulate, cli, smoke)
            missing = tracer.missing + [
                f"qvotes.simulate.{name}" for name in ("draw_run_sample",) if not hasattr(simulate, name)
            ]
    finally:
        log.close()
        if saved_threads is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved_threads

    # Counts repeat exactly (checked above), so report one cycle's value.
    series = {
        name: ([c[name] for c in cycles[-1:] if unit == "count"] or [c[name] for c in cycles], unit)
        for name, unit in CYCLE_UNITS.items()
    }
    series["cli.import_s"] = ([import_s], "s")
    series["data.input_bytes"] = ([float(sum(p.stat().st_size for p in job.input_paths))], "bytes")
    for name, value in probes.items():
        series[name] = ([value], "us")
    series["trace.missing_names"] = ([len(missing)], "count")
    extra = {
        "missing": missing,
        "layers": {
            k: {"calls": v.calls, "self_s": v.self_s, "total_s": v.total_s, "errors": v.errors}
            for k, v in sorted(layers.items())
        },
    }
    return series, attempted, failed, problems, extra


CYCLE_UNITS = {
    "bootstrap.bootstrap_ci_mos.calls": "count",
    "bootstrap.bootstrap_ci_mos.self_s": "s",
    "bootstrap.bootstrap_ci_mos.us_per_call": "us",
    "stats.srcc.calls": "count",
    "stats.srcc.self_s": "s",
    "stats.srcc.degenerate": "count",
    "stats.rmse.self_s": "s",
    "stats.fit_line.self_s": "s",
    "stats.dataset_mos.s": "s",
    "simulate.run_sweep.calls": "count",
    "simulate.run_sweep.self_s": "s",
    "simulate.certainty_gain.s": "s",
    "simulate.write.s": "s",
    "simulate.thread_speedup": "ratio",
    "simulate.thread_cpu_ratio": "ratio",
    "cli.write_manifest.s": "s",
    "cli.main.self_s": "s",
    "data.load_ratings.s": "s",
    "data.load_reference.s": "s",
    "modelfit.fit_power_model.calls": "count",
    "modelfit.fit_power_model.self_s": "s",
    "trace.sweep_untraced_s": "s",
    "trace.overhead_s": "s",
}


def _cycle_metrics(layers, walls: dict[str, float], cpus: dict[str, float], traced_s: float):
    def get(layer):
        return layers.get(layer, LayerStats())

    boot = get("bootstrap.bootstrap_ci_mos")
    return {
        "bootstrap.bootstrap_ci_mos.calls": boot.calls,
        "bootstrap.bootstrap_ci_mos.self_s": boot.self_s,
        "bootstrap.bootstrap_ci_mos.us_per_call": 1e6 * boot.self_s / boot.calls if boot.calls else 0.0,
        "stats.srcc.calls": get("stats.srcc").calls,
        "stats.srcc.self_s": get("stats.srcc").self_s,
        "stats.srcc.degenerate": get("stats.srcc").errors.get("DegenerateDataError", 0),
        "stats.rmse.self_s": get("stats.rmse").self_s,
        "stats.fit_line.self_s": get("stats.fit_line").self_s,
        "stats.dataset_mos.s": get("stats.dataset_mos").total_s,
        "simulate.run_sweep.calls": get("simulate.run_sweep").calls,
        "simulate.run_sweep.self_s": get("simulate.run_sweep").self_s,
        "simulate.certainty_gain.s": get("simulate.certainty_gain").total_s,
        "simulate.write.s": get("simulate.write_curves_csv").total_s + get("simulate.write_curves_json").total_s,
        "simulate.thread_speedup": walls["one"] / walls["default"],
        "simulate.thread_cpu_ratio": cpus["default"] / cpus["one"],
        "cli.write_manifest.s": get("cli.write_manifest").total_s,
        "cli.main.self_s": get("cli.main").self_s,
        "data.load_ratings.s": get("data.load_ratings").total_s,
        "data.load_reference.s": get("data.load_reference").total_s,
        "modelfit.fit_power_model.calls": get("modelfit.fit_power_model").calls,
        "modelfit.fit_power_model.self_s": get("modelfit.fit_power_model").self_s,
        "trace.sweep_untraced_s": walls["one"],
        "trace.overhead_s": traced_s - walls["one"],
    }


def _probes(job, simulate, cli, smoke: bool) -> dict[str, float]:
    """Isolated costs: drawing one run's votes (0 if the function is gone),
    and one single-metric sweep (one run per n) per metric family."""
    ds = cli.load_ratings(str(job.ratings), label=job.name)
    ref = cli.load_reference(str(job.reference))
    k = len(ds.conditions)
    out = {}
    draw = getattr(simulate, "draw_run_sample", None)
    times = []
    stop = time.monotonic() + (0.05 if smoke else 0.5)
    while draw is not None and (len(times) < 3 or time.monotonic() < stop):
        times.append(_timed(draw, ds, DRAW_PROBE_N, len(times), job.qseed)[1])
    out["simulate.draw_run_sample.us_per_condition"] = 1e6 * statistics.median(times) / k if times else 0.0
    for family, metrics in PROBE_METRICS.items():
        cfg = simulate.SweepConfig(
            n_values=job.grid, repetitions=1, master_seed=job.qseed, metrics=metrics
        )
        wall = _timed(simulate.run_sweep, ds, ref, cfg)[1]
        out[f"simulate.us_per_run_condition.{family}"] = 1e6 * wall / (len(job.grid) * k)
    return out
