"""Benchmark for ``qvotes simulate``: end to end, or traced per layer.

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 50 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed`` into ``perfbench/_work/<workload>/``.  The load is a closed loop
with one client: one invocation at a time, each in a fresh interpreter
that runs the real CLI entry point (``qvotes.cli.main``) on ``src/``.

``--trace 0`` repeats ``simulate`` + ``fit`` invocations for ``--seconds``
and reports medians of the end-to-end metrics.  ``cpu_s`` is the CPU time
of all the child's threads during the ``simulate`` call.  Each invocation
also times a frozen reference kernel just before and just after that call
(``calibrate.py``), and its times are scaled to a fixed host speed (wall
times by the kernel's wall time, ``cpu_s`` by its CPU time): this shared
machine's speed drifts by tens of percent over minutes, in CPU time as
well as wall time, and the scaling takes most of that drift out.  The raw
medians and the speed factors are printed too.  The timed invocations run
with one worker (``QVOTES_THREADS=1``): on a small shared machine, two
busy threads expose both CPUs to the host's scheduling, and in our
measurements that made default-worker sweep times spread up to 39% from
run to run, against ~10% with one worker.  One default-worker invocation
per run checks that it writes the same bytes; the traced run reports the
thread speed-up.

``--trace 1`` runs in this one process with one worker, wraps each
module's public functions (see ``tracing.py``) and reports per-layer
counts and self times.  Either way every output is checked; a failed check makes the run exit 1.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
human-readable report, and ``perfbench/_work/<workload>/result.json`` has
the full record (inputs, environment, quartiles, problems).

``--smoke`` shrinks every workload's grid to a few points and one run, for
the self-check in ``test_perfbench_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
THREADS_ENV = "QVOTES_THREADS"
RUN_BUDGET_S = 170.0  # hard stop for one run, under the 180 s limit
SETUP_SAMPLES = 9  # import-only children top the set-up samples up to this
# Printed in the report but not declared metrics: a fit's cost depends on
# how many Gauss-Newton steps one noisy curve needs, which swings ~10x from
# seed to seed, so no allowed bound could hold it; the raw times and speed
# factors are there to show what the host-speed scaling did.
REPORT_ONLY = ("fit_s", "raw.sweep_s", "raw.setup_s", "raw.cpu_s", "host.speed")

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S  # noqa: E402
from inputs import StudyShape, write_study  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: StudyShape
    grid: str
    smoke_grid: str
    runs: int
    metrics: tuple[str, ...]  # curves the CSV must hold, in order
    flags: tuple[str, ...]  # extra ``simulate`` flags
    uses_reference: bool


ALL_SIX = ("validity_srcc", "validity_rmse", "gain_srcc", "gain_rmse", "ci_width", "irr")

WORKLOADS = {
    # The paper's default sweep shape: every metric, default bootstrap.
    # Bootstrap and IRR dominate, so it carries the exact-bootstrap and
    # IRR-kernel work.  No --metrics flag, so the default list is checked.
    "paper_all": Workload(
        shape=StudyShape(conditions=50, raters=150, coverage=0.9),
        grid="10:200:10", smoke_grid="20:200:60", runs=1,
        metrics=ALL_SIX, flags=(), uses_reference=True,
    ),
    # Many conditions, few votes: no bootstrap and no IRR, so changes to
    # those must show nothing here; per-condition sampling dominates and
    # --delta repeats the gain sweep.
    "wide_lown": Workload(
        shape=StudyShape(conditions=600, raters=120, coverage=0.25),
        grid="2:20:2", smoke_grid="4:10:2", runs=1,
        metrics=("validity_srcc", "validity_rmse", "gain_srcc", "gain_rmse",
                 "gain_srcc_delta", "gain_rmse_delta"),
        flags=("--metrics", "validity_srcc,validity_rmse,gain_srcc,gain_rmse", "--fom", "--delta"),
        uses_reference=True,
    ),
    # A large rater dimension: one srcc call per rater per run dominates.
    # Two runs, because at n=10 a single run may find no rater eligible for
    # IRR.  Not in BENCHMARK.json: the time allowed for all runs caps a
    # three-workload benchmark at ~35 s per run, and at ~7 s per crowd_irr
    # invocation that leaves ~5 samples per median.  Run it by hand for
    # per-rater IRR profiles.
    "crowd_irr": Workload(
        shape=StudyShape(conditions=60, raters=2000, coverage=0.1),
        grid="10:200:10", smoke_grid="20:80:20", runs=2,
        metrics=("irr", "gain_srcc", "gain_rmse"),
        flags=("--metrics", "irr,gain_srcc,gain_rmse"), uses_reference=False,
    ),
}


def parse_grid(text: str) -> tuple[int, ...]:
    start, stop, step = (int(x) for x in text.split(":"))
    return tuple(range(start, stop + 1, step))


@dataclass
class Job:
    """One workload instance: generated inputs and the CLI calls to make."""

    name: str
    workload: Workload
    seed: int
    qseed: int
    grid_text: str
    runs: int
    work: Path
    ratings: Path
    reference: Path
    inputs: dict

    @property
    def grid(self) -> tuple[int, ...]:
        return parse_grid(self.grid_text)

    @property
    def out_base(self) -> Path:
        return self.work / "out" / self.name

    @property
    def artifacts(self) -> tuple[Path, Path, Path]:
        base = str(self.out_base)
        return Path(base + ".csv"), Path(base + ".json"), Path(base + ".manifest.json")

    @property
    def votes(self) -> int:
        """Votes drawn by one sweep: sum over n of n x runs x conditions."""
        return sum(self.grid) * self.runs * self.workload.shape.conditions

    @property
    def input_paths(self) -> list[Path]:
        return [self.ratings] + ([self.reference] if self.workload.uses_reference else [])

    def simulate_argv(self) -> list[str]:
        argv = ["simulate", str(self.ratings)]
        if self.workload.uses_reference:
            argv += ["--ref", str(self.reference)]
        return argv + [
            "--n", self.grid_text, "--runs", str(self.runs), "--seed", str(self.qseed),
            "--out", str(self.out_base), *self.workload.flags,
        ]

    def fit_path(self, metric: str) -> Path:
        return self.work / "out" / f"fit_{metric}.json"

    def fit_argvs(self) -> list[list[str]]:
        return [
            ["fit", str(self.artifacts[0]), "--metric", m, "--out", str(self.fit_path(m))]
            for m in self.workload.metrics
        ]

    def clear_outputs(self) -> None:
        for path in self.artifacts + tuple(self.fit_path(m) for m in self.workload.metrics):
            path.unlink(missing_ok=True)

    def check_outputs(self) -> list[str]:
        """Full correctness check of the artifacts currently on disk."""
        from checks import check_fit, check_manifest, check_sweep, condition_sigmas

        csv_path, json_path, manifest_path = self.artifacts
        problems = [f"missing artifact {p.name}" for p in self.artifacts if not p.is_file()]
        if problems:
            return problems
        problems += check_sweep(
            csv_path, json_path, self.workload.metrics, self.grid, self.runs, self.name,
            condition_sigmas(self.ratings),
        )
        digests = [self.inputs["ratings_sha256"]]
        if self.workload.uses_reference:
            digests.append(self.inputs["reference_sha256"])
        problems += check_manifest(manifest_path, self.qseed, digests)
        for m in self.workload.metrics:
            problems += check_fit(self.fit_path(m), m, len(self.grid))
        return problems

    def output_bytes(self) -> tuple[bytes, bytes] | None:
        """Curve CSV and JSON bytes (the manifest has a timestamp)."""
        csv_path, json_path, _ = self.artifacts
        if not (csv_path.is_file() and json_path.is_file()):
            return None
        return csv_path.read_bytes(), json_path.read_bytes()


def prepare(name: str, seed: int, smoke: bool) -> Job:
    workload = WORKLOADS[name]
    work = HERE / "_work" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    ratings, reference = work / f"{name}.csv", work / f"{name}_ref.csv"
    inputs = write_study(workload.shape, seed, ratings, reference)
    return Job(
        name=name, workload=workload, seed=seed,
        qseed=(seed * 2654435761 + 12345) % 2**31,
        grid_text=workload.smoke_grid if smoke else workload.grid,
        runs=1 if smoke else workload.runs,
        work=work, ratings=ratings, reference=reference, inputs=inputs,
    )


# -- end-to-end run -----------------------------------------------------------


def child_env(one_worker: bool) -> dict[str, str]:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    if one_worker:
        env[THREADS_ENV] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(job: Job, deadline: float, simulate: bool = True, one_worker: bool = False) -> dict:
    """Spawn one child, wait for it and return its timings and rusage."""
    timings = job.work / "timings.json"
    timings.unlink(missing_ok=True)
    if simulate:
        job.clear_outputs()
    doc = {
        "simulate": job.simulate_argv() if simulate else None,
        "fits": job.fit_argvs() if simulate else [],
        "timings": str(timings),
    }
    with open(job.work / "child.log", "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(doc)],
            stdout=log, stderr=log, env=child_env(one_worker), cwd=ROOT,
        )
    # Block in wait4 rather than poll, so the parent takes no CPU from the
    # child; a timer kills a child that outlives the run's budget.
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and timings.is_file():
        t = json.loads(timings.read_text(encoding="utf-8"))
        walls, cpus = zip(*t["calib"])
        sample.update(setup_s=t["imported_at"] - spawned, sweep_s=t["sweep_s"], fit_s=t["fit_s"],
                      cpu_s=t["sweep_cpu_s"], speed=REFERENCE_S / statistics.fmean(walls),
                      cpu_speed=REFERENCE_S / statistics.fmean(cpus))
    return sample


def run_end_to_end(job: Job, seconds: float, deadline: float, smoke: bool):
    """Closed loop of one-worker invocations for ``seconds``, then one
    default-worker invocation that must give the same bytes, then import-only
    invocations until there are ``SETUP_SAMPLES`` set-up samples.  An
    invocation fails on a nonzero exit, a missing artifact or a failed
    output check."""
    samples, problems, failed = [], [], set()

    def fail(index: int, message: str) -> None:
        failed.add(index)
        problems.append(f"invocation {index}: {message}")

    first_bytes = None
    stop = time.monotonic() + seconds
    while not samples or time.monotonic() < stop:
        s = invoke(job, deadline, one_worker=True)
        samples.append(s)
        got = job.output_bytes()
        if s["exit_code"] != 0 or "sweep_s" not in s:
            fail(len(samples), f"exit code {s['exit_code']} (see child.log)")
        elif first_bytes is None:
            first_bytes = got
        elif got != first_bytes:
            fail(len(samples), "outputs differ from the first invocation with the same seed")
    for problem in job.check_outputs():
        fail(len(samples), problem)

    default = invoke(job, deadline)
    samples.append(default)
    if default["exit_code"] != 0 or job.output_bytes() != first_bytes:
        fail(len(samples), f"default workers: exit code {default['exit_code']} or outputs differ from {THREADS_ENV}=1")

    timed = [s for s in samples[:-1] if "sweep_s" in s]
    setups = [s for s in samples if "setup_s" in s]
    while not smoke and len(setups) < SETUP_SAMPLES:
        s = invoke(job, deadline, simulate=False)
        samples.append(s)
        if "setup_s" not in s:
            fail(len(samples), f"import only: exit code {s['exit_code']}")
            break
        setups.append(s)

    # Times at the reference host speed (see calibrate.py); raw ones are
    # reported alongside but not declared.
    series = {
        "sweep_s": ([s["sweep_s"] * s["speed"] for s in timed], "s"),
        "votes_per_s": ([job.votes / (s["sweep_s"] * s["speed"]) for s in timed], "votes/s"),
        "fit_s": ([s["fit_s"] * s["speed"] for s in timed], "s"),
        "setup_s": ([s["setup_s"] * s["speed"] for s in setups], "s"),
        "cpu_s": ([s["cpu_s"] * s["cpu_speed"] for s in timed], "s"),
        "peak_rss_mb": ([s["peak_rss_mb"] for s in timed], "MB"),
        "raw.sweep_s": ([s["sweep_s"] for s in timed], "s"),
        "raw.setup_s": ([s["setup_s"] for s in setups], "s"),
        "raw.cpu_s": ([s["cpu_s"] for s in timed], "s"),
        "host.speed": ([s["speed"] for s in samples if "speed" in s], "ratio"),
    }
    return series, len(samples), len(failed), problems


# -- reporting ----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qvotes" / "cli.py").is_file():
        print(f"error: no qvotes sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_BUDGET_S
    job = prepare(args.workload, abs(args.seed), args.smoke)
    if args.trace:
        from tracing import run_traced

        series, attempted, failed, problems, extra = run_traced(job, args.seconds, args.smoke)
    else:
        series, attempted, failed, problems = run_end_to_end(job, args.seconds, deadline, args.smoke)
        extra = {}

    stats = {name: dict(summarize(values), unit=unit) for name, (values, unit) in series.items()}
    csv_bytes = job.artifacts[0].read_bytes() if job.artifacts[0].is_file() else b""
    record = {
        "workload": job.name, "seed": job.seed, "qvotes_seed": job.qseed, "trace": args.trace,
        "smoke": args.smoke, "argv": job.simulate_argv(), "votes_per_sweep": job.votes,
        "inputs": job.inputs, "output_csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "environment": environment(), "metrics": stats, "problems": problems, **extra,
    }
    (job.work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {job.name}  seed {job.seed}  qvotes --seed {job.qseed}  trace {args.trace}")
    print(f"inputs   {json.dumps(job.inputs)}")
    print(f"env      {json.dumps(record['environment'])}")
    print(f"output   {job.artifacts[0].name} sha256 {record['output_csv_sha256']}")
    for key, value in extra.items():
        print(f"{key:8s} {json.dumps(value)}")
    for name, st in stats.items():
        print(f"{name:45s} {st['median']!s:>22} {st['unit']:7s} q1 {st['q1']}  q3 {st['q3']}  n={st['n']}")
    print(f"error_rate {failed / attempted:.4g} ratio ({failed} of {attempted} failed)")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": st["median"], "unit": st["unit"]}
            for name, st in stats.items() if name not in REPORT_ONLY
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
