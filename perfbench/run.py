"""Benchmark of the rectoamp pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (M = 1000, N = 2000, theta = 2, w0 = 0.04, 10 iterations):

  fig1     configs/fig1.cfg (MP spectrum, Gaussian noise, oamp,amp,pca),
           workers = 1: the plain single-process baseline.
  fig2     configs/fig2.cfg (Beta(1.5, 1.5) on [1, 3], RI noise, oamp,pca),
           workers = 1.
  se_grid  spectral engine and state evolution over a (spectrum, delta,
           theta) grid, no instances; see se_grid.py.

There is no workload through the process pool (workers left at the CPU
count): with every worker also running multithreaded OpenBLAS its wall
time is bimodal, e.g. 6-8 s or 21-25 s for the same two seeds on two
cores, so no bound can hold its spread.

The seed picks six instance seeds (or the se_grid jitter). A workload is
split into chunks: two of three seeds each for fig*; the mp rows, the
beta delta = 0.5 row and the beta delta = 1 row for se_grid.  One
repetition runs one chunk in one process: ``rectoamp run`` from start to
exit with the CSV and metadata written, or one part of the se_grid
sweep.  Repetitions cycle through the chunks until ``--seconds`` have
passed and every chunk has run, the first one twice.  ``wall_s`` and
``cpu_s`` are the sum over chunks of the chunk's median, the time of the
whole workload; ``peak_rss_mb`` is the largest chunk median.
``setup_s`` is the median over fresh interpreters that import rectoamp
and parse the config, three before each repetition and three after the
last.  With ``--trace 1`` each chunk runs once untraced and once traced
(pipeline.py or se_grid.py --trace), serially, and the per-layer metrics
are printed.  Every launched process gets the environment without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
RECTOAMP_WORKERS, so the program runs with its shipped defaults.

Outputs are checked: over all six seeds, OAMP within 0.02 of its state
evolution at every t, and AMP's last iterate and PCA within 0.02 of
their predictions; every repetition and traced run of a chunk gives the
same output as its first run; se_grid points pass their own checks.  An
operation is one seed or grid point; it counts once however many
repetitions run it, and fails once however many checks it fails.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}. The exit code is 0 when every check passes, 1 when one fails
and 2 when the program cannot be run from here.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from tracing import layer_time, merge, operation_summary, span_resolution  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "RECTOAMP_WORKERS")
# fresh interpreters timed before each repetition and after the last, so
# that the setup samples spread over the whole run
SETUP_PER_REP = 3
CHILD_TIMEOUT_S = 160
TOL = 0.02                       # criterion-1 tolerance
EXPECTED_CONFIG = {"M": 1000, "N": 2000, "theta": 2.0, "w0_u": 0.04,
                   "w0_v": 0.04, "iters": 10}

# The per-seed standard deviation of cos^2 at M = 1000 is up to about
# 0.011 (fig1 v side, fig2 u side at t = 1, where the mean also sits 0.006
# below SE), so the 0.02 checks are made on the mean over six seeds, which
# keeps a false alarm near 1e-4 per run.
N_SEEDS = 6
WORKLOADS = {
    "fig1": {"config": "configs/fig1.cfg", "methods": ["oamp", "amp", "pca"]},
    "fig2": {"config": "configs/fig2.cfg", "methods": ["oamp", "pca"]},
    "se_grid": {"config": "configs/fig1.cfg", "methods": ["oamp", "amp", "pca"]},
}
# se_grid.py arguments of each chunk.  The cheap one comes first, since the
# first chunk is the one that runs twice.  The beta rows run in a process
# each: the atom scan's page faults (a quarter of their CPU time, with a
# fault count that differs from one process to the next) make a single
# beta process vary by about 10 %, and the sum over two varies less.
GRID_CHUNKS = [{"kinds": "mp", "deltas": "0.5,1.0"},
               {"kinds": "beta", "deltas": "0.5"},
               {"kinds": "beta", "deltas": "1.0"}]
GRID_POINTS_PER_ROW = 6
# --tiny, the smoke test's size: fig* at M = 200 with 4 seeds and 3
# iterations, se_grid on its mp rows only
TINY = {"M": 200, "N": 400, "iters": 3}
TINY_SEEDS = 4
TINY_GRID_CHUNKS = [{"kinds": "mp", "deltas": "0.5"}, {"kinds": "mp", "deltas": "1.0"}]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "ok_frac": "ratio"}
# Per-layer metrics of the traced run.  A name in SPAN_METRICS sums the spans
# named without its "_s" (see pipeline.py and se_grid.py); "_mb" metrics are
# bytes computed from array sizes; harness.seed_s.* are taken over operation
# spans, a seed or an se_grid point.
SPAN_METRICS = (
    "spectra.build_s", "spectra.atoms_s", "state_evolution.se_s",
    "state_evolution.fixed_point_s", "oamp.schedule_s", "oamp.run_s",
    "oamp.matvec_s", "model.instance_s", "model.svd_s", "baselines.amp_s",
    "baselines.pca_s", "harness.predictions_s", "harness.emit_s")
PER_LAYER_UNITS = {
    "spectra.build_s": "s", "spectra.atoms_s": "s", "spectra.scan_mb": "MB",
    "state_evolution.se_s": "s", "state_evolution.iters_to_converge": "count",
    "state_evolution.fixed_point_s": "s",
    "oamp.schedule_s": "s", "oamp.run_s": "s", "oamp.matvec_s": "s",
    "model.instance_s": "s", "model.svd_s": "s",
    "model.instance_mb": "MB", "model.svd_mb": "MB",
    "baselines.amp_s": "s", "baselines.pca_s": "s",
    "harness.predictions_s": "s", "harness.seed_s.p50": "s",
    "harness.seed_s.max": "s", "harness.emit_s": "s",
    "harness.parallel_eff": "ratio", "harness.seed_remainder_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "quality.failed_frac": "ratio", "quality.se_gap": "cos2",
    "quality.spectra_residual": "abs",
}

SETUP_CODE = "import sys, rectoamp.harness as h; h.load_config(sys.argv[1])"
ENV_CODE = """
import json, sys, numpy, scipy, rectoamp.harness as h
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except Exception as exc:
    blas = {"error": repr(exc)}
cfg = h.load_config(sys.argv[1])
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas, "config": {k: getattr(cfg, k) for k in sys.argv[2:]}}))
"""


@dataclass
class Sample:
    """Wall time, CPU time and peak RSS of one child process tree."""

    wall: float
    cpu: float
    rss_mb: float
    code: int


class Run:
    """Operations of one run and the ones that failed, each counted once.

    An operation is a seed or a grid point, however many repetitions run it,
    so that the failed share does not depend on how many fit in a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = set()
        self.failed = set()
        self.failures = []       # distinct {workload, operation, type, message}
        self.check_errors = []

    def attempt(self, keys):
        self.attempted.update(keys)

    def fail(self, keys, kind, message, operation=None, check=True):
        """Mark ``keys`` failed; ``check`` makes the run incorrect, which a
        raised seed or grid point does not (it is counted, not hidden)."""
        self.failed.update(keys)
        entry = {"workload": self.workload, "operation": operation, "type": kind,
                 "message": message}
        if entry not in self.failures:
            self.failures.append(entry)
        if check:
            self.check_errors.append(message)

    def failed_frac(self):
        return len(self.failed) / max(len(self.attempted), 1)


# -- child processes ------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, log_path, env) -> Sample:
    """Run ``python3 args...`` from the checkout root; the rusage of wait4
    covers the child and every descendant it waited for."""
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(time.perf_counter() - start, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def probe_environment(spec, env, tmp):
    """Versions and BLAS build of the child interpreter, and the config
    values the workload depends on (also warms the bytecode cache before
    setup is timed)."""
    out = tmp / "env.json"
    with open(out, "wb") as fh:
        code = subprocess.run([sys.executable, "-c", ENV_CODE, spec["config"],
                               *spec["expected"]], cwd=ROOT, env=env, stdout=fh,
                              stderr=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S).returncode
    if code != 0:
        return None
    return json.loads(out.read_text())


class SetupFailed(Exception):
    pass


def measure_setup(spec, env, tmp, walls):
    """Append the wall times of ``setup_per_rep`` fresh interpreters that
    import rectoamp and parse the workload config."""
    for _ in range(spec["setup_per_rep"]):
        s = run_child(["-c", SETUP_CODE, spec["config"]], tmp / "setup.log", env)
        if s.code != 0:
            raise SetupFailed(f"the setup probe exited with {s.code}")
        walls.append(s.wall)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# -- workloads --------------------------------------------------------------------

class FigWorkload:
    """``rectoamp run`` on a shipped config, one chunk of seeds per process."""

    op_span = "harness.seed"

    def __init__(self, spec, seeds, tmp, env):
        self.spec, self.tmp, self.env = spec, tmp, env
        half = len(seeds) // 2
        # rectoamp reads a lone number in --seeds as a seed count
        assert half >= 2, "each chunk needs at least two seeds"
        self.chunks = [seeds[:half], seeds[half:]]

    def keys(self, k):
        return self.chunks[k]

    def rep(self, run, k, label, traced=False):
        """One process on chunk k; returns (sample, CSV bytes or None)."""
        prefix = self.tmp / str(label)
        seeds = ",".join(map(str, self.chunks[k]))
        if traced:
            args = [str(BENCH / "pipeline.py"), self.spec["config"], "--seeds", seeds,
                    "--out", str(prefix), "--result", str(prefix) + ".trace.json"]
        else:
            args = ["-m", "rectoamp.cli", "run", self.spec["config"], "--workers", "1",
                    "--seeds", seeds, "--out", str(prefix)]
        sample = run_child(args, prefix.with_suffix(".log"), self.env)
        keys = self.keys(k)
        run.attempt(keys)
        csv_path = prefix.with_suffix(".csv")
        if sample.code != 0 or not csv_path.exists():
            run.fail(keys, "RunFailed", f"rectoamp run exited with {sample.code} "
                     f"(log {prefix.with_suffix('.log').name})")
            return sample, None
        # rectoamp keeps only the message of a failed seed; the traced run
        # also has its exception type
        types = {s["seed"]: s["error"]["type"]
                 for s in (self.trace(label) or {}).get("spans", [])
                 if s["name"] == self.op_span and "error" in s}
        meta = json.loads(prefix.with_suffix(".meta.json").read_text())
        for seed, message in meta.get("failures", {}).items():
            run.fail([int(seed)], types.get(int(seed), "SeedFailed"),
                     message, int(seed), check=False)
        return sample, csv_path.read_bytes()

    def trace(self, label):
        path = self.tmp / f"{label}.trace.json"
        return json.loads(path.read_text()) if path.exists() else None

    def check(self, run, outputs):
        """The tolerance checks on the mean over all chunks (the chunks have
        the same number of seeds); returns the quality figures."""
        keys = [seed for chunk in self.chunks for seed in chunk]
        if any(out is None for out in outputs):
            return {"se_gap": 0.0, "spectra_residual": 0.0}
        tables = [parse_csv(out) for out in outputs]
        errors, gap = [], 0.0
        methods = sorted({m for m, _ in tables[0]})
        if methods != sorted(self.spec["expected"]["methods"]):
            errors.append(f"methods {methods} in the CSV, expected "
                          f"{sorted(self.spec['expected']['methods'])}")
        if any(set(t) != set(tables[0]) for t in tables[1:]):
            errors.append("the chunks' CSVs have different rows")
            tables = tables[:1]
        for method in methods:
            n_rows = 1 if method == "pca" else self.spec["expected"]["iters"]
            ts = sorted(t for m, t in tables[0] if m == method)
            if ts != list(range(1, n_rows + 1)):
                errors.append(f"{method}: rows t = {ts}, expected 1..{n_rows}")
                continue
            for t in ts if method == "oamp" else ts[-1:]:
                for side in ("u", "v"):
                    preds = {table[method, t][f"pred_cos2_{side}"] for table in tables}
                    mean = statistics.fmean(
                        number(table[method, t][f"mean_cos2_{side}"])
                        for table in tables)
                    dev = abs(mean - number(preds.pop())) if len(preds) == 1 else math.nan
                    if method != "amp" and math.isfinite(dev):
                        gap = max(gap, dev)
                    if not dev <= TOL:
                        errors.append(f"{method} t={t} {side}: |mean cos2 - "
                                      f"prediction| = {dev:.4f} > {TOL}")
        if errors:
            run.fail(keys, "CheckFailed", "; ".join(errors))
        return {"se_gap": gap, "spectra_residual": 0.0}


class GridWorkload:
    """se_grid.py, one chunk of the grid rows per process."""

    op_span = "se_grid.point"

    def __init__(self, spec, seed, tmp, env):
        self.spec, self.seed, self.tmp, self.env = spec, seed, tmp, env
        self.chunks = spec["grid_chunks"]
        self.results = {}       # se_grid.py output by repetition label
        self.names = {}         # chunk -> names of its points that ran

    def rep(self, run, k, label, traced=False):
        """One part of the sweep; returns (sample, its points or None)."""
        result = self.tmp / f"{label}.json"
        args = [str(BENCH / "se_grid.py"), self.spec["config"], "--seed",
                str(self.seed), "--result", str(result)]
        for key, value in self.chunks[k].items():
            args += [f"--{key}", value]
        sample = run_child(args + (["--trace"] if traced else []),
                           self.tmp / f"{label}.log", self.env)
        if sample.code != 0 or not result.exists():
            chunk = self.chunks[k]
            n_points = (len(chunk["kinds"].split(",")) * len(chunk["deltas"].split(","))
                        * GRID_POINTS_PER_ROW)
            # the point names if an earlier repetition of the chunk gave them
            keys = self.names.get(k) or [f"chunk {k} point {i}" for i in range(n_points)]
            run.attempt(keys)
            run.fail(keys, "RunFailed", f"se_grid sweep exited with {sample.code}")
            return sample, None
        out = self.results[label] = json.loads(result.read_text())
        self.names.setdefault(k, [p["point"] for p in out["points"]])
        run.attempt(p["point"] for p in out["points"] + out["failures"])
        for f in out["failures"]:
            run.fail([f["point"]], f["type"], f["message"], f["point"],
                     check=f["type"] == "CheckFailed")
        return sample, out["points"]

    def keys(self, k):
        return self.names.get(k, [])

    def trace(self, label):
        out = self.results.get(label)
        return {"spans": out["spans"], "counters": out["counters"]} if out else None

    def check(self, run, outputs):
        points = [p for out in outputs if out for p in out]
        residual = max((max(p["residuals"].values()) for p in points), default=0.0)
        return {"se_gap": 0.0, "spectra_residual": residual}


def parse_csv(data):
    return {(row["method"], int(row["t"])): row
            for row in csv.DictReader(io.StringIO(data.decode()))}


def number(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def instance_seeds(seed, count):
    return random.Random(seed).sample(range(1, 2 ** 31), count)


def repetitions(run, workload, seconds, trace, setup):
    """Untraced repetitions, cycling through the chunks, with ``setup()``
    called before each and after the last.  Returns each chunk's samples
    and first output; later outputs of a chunk must equal its first."""
    n = len(workload.chunks)
    samples = [[] for _ in range(n)]
    first = {}
    start = time.perf_counter()
    i = 0
    while i < n or (not trace and (i <= n or time.perf_counter() - start < seconds)):
        k = i % n
        setup()
        sample, out = workload.rep(run, k, i)
        samples[k].append(sample)
        if k not in first:
            first[k] = out
        elif out is not None and first[k] is not None and out != first[k]:
            run.fail(workload.keys(k), "CheckFailed",
                     f"repetition {i} output differs from repetition {k} (chunk {k})")
        i += 1
    setup()
    return samples, [first[k] for k in range(n)]


# -- metrics ----------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def per_layer_metrics(spans, counters, op_name, busy, resolution):
    metrics = {}
    for name in SPAN_METRICS:
        total = layer_time(spans, name.removesuffix("_s"))
        # a layer this workload never calls reads the tracer's resolution
        metrics[name] = total if total is not None else resolution
    ops, remainder = operation_summary(spans, op_name)
    metrics["harness.seed_s.p50"] = statistics.median(ops) if ops else resolution
    metrics["harness.seed_s.max"] = max(ops) if ops else resolution
    metrics["harness.seed_remainder_frac"] = remainder
    busy -= metrics["harness.predictions_s"]
    # one worker: the share of the traced run, less set-up and predictions,
    # that the operations account for (the traced wall, not the untraced
    # one, so that host noise between the two runs does not enter)
    metrics["harness.parallel_eff"] = sum(ops) / busy if busy > 0 else 0.0
    mb = lambda key: max(counters.get(key) or [0]) / 1e6
    metrics["spectra.scan_mb"] = mb("scan_bytes")
    metrics["model.instance_mb"] = mb("instance_bytes")
    metrics["model.svd_mb"] = mb("svd_bytes")
    iters = counters.get("iters_to_converge") or [0]
    metrics["state_evolution.iters_to_converge"] = statistics.mean(iters)
    return metrics


def emit(run, metrics, units, lines):
    for line in lines:
        print(line)
    for f in run.failures:
        print("failure " + json.dumps(f))
    correct = not run.check_errors
    print(json.dumps({"correct": correct, "attempted": max(len(run.attempted), 1),
                      "failed": len(run.failed),
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if correct else 1


# -- main -------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size; its timings mean nothing")
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    spec = WORKLOADS[args.workload]
    if not (ROOT / "src" / "rectoamp" / "__init__.py").is_file() \
            or not (ROOT / spec["config"]).is_file():
        print(f"error: no rectoamp sources or {spec['config']} under {ROOT}",
              file=sys.stderr)
        return 2

    env = child_env()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, spec, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, spec, env, tmp) -> int:
    is_grid = args.workload == "se_grid"
    spec = dict(spec, expected=dict(EXPECTED_CONFIG, methods=spec["methods"]),
                setup_per_rep=SETUP_PER_REP, n_seeds=N_SEEDS,
                grid_chunks=GRID_CHUNKS)
    if args.tiny:
        config = tmp / "tiny.cfg"
        config.write_text((ROOT / spec["config"]).read_text() + "".join(
            f"\n{k} = {v}" for k, v in TINY.items()) + "\n")
        spec.update(config=str(config), expected=dict(spec["expected"], **TINY),
                    n_seeds=TINY_SEEDS, setup_per_rep=1, grid_chunks=TINY_GRID_CHUNKS)
    probe = probe_environment(spec, env, tmp)
    if probe is None:
        print("error: cannot import rectoamp and its dependencies", file=sys.stderr)
        return 2
    if probe["config"] != spec["expected"]:
        print(f"error: {spec['config']} no longer holds the workload inputs "
              f"{spec['expected']}: {probe['config']}", file=sys.stderr)
        return 2
    seeds = [] if is_grid else instance_seeds(args.seed, spec["n_seeds"])
    environment = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": probe["numpy"],
        "scipy": probe["scipy"], "blas": probe["blas"],
        "env_found": {k: os.environ.get(k) for k in BLAS_VARS},
        "env_passed": {k: env.get(k) for k in (*BLAS_VARS, "PYTHONPATH")},
        "workers": 1,    # --workers 1 for fig*, one process for se_grid
        "git_commit": git_commit(),
    }
    run = Run(args.workload)
    workload = (GridWorkload(spec, args.seed, tmp, env) if is_grid
                else FigWorkload(spec, seeds, tmp, env))
    setup_walls = []
    try:
        samples, outputs = repetitions(
            run, workload, args.seconds, args.trace,
            lambda: measure_setup(spec, env, tmp, setup_walls))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = statistics.median(setup_walls)
    quality = workload.check(run, outputs)
    n_reps = sum(map(len, samples))
    lines = [f"workload {args.workload} seed {args.seed} repetitions {n_reps}"
             f" instance_seeds {seeds}",
             "environment " + json.dumps(environment)]
    if not args.trace:
        per_chunk = {name: [[getattr(s, attr) for s in chunk] for chunk in samples]
                     for name, attr in (("wall_s", "wall"), ("cpu_s", "cpu"),
                                        ("peak_rss_mb", "rss_mb"))}
        medians = {name: [statistics.median(v) for v in chunks]
                   for name, chunks in per_chunk.items()}
        metrics = {"wall_s": sum(medians["wall_s"]), "setup_s": setup,
                   "cpu_s": sum(medians["cpu_s"]),
                   "peak_rss_mb": max(medians["peak_rss_mb"]),
                   "ok_frac": 1.0 - run.failed_frac()}
        for name, chunks in per_chunk.items():
            unit = END_TO_END_UNITS[name]
            lines.append(f"{name} {metrics[name]:.4f} {unit} (" + "; ".join(
                "chunk {}: q1 {:.4f}, median {:.4f}, q3 {:.4f}, n {}".format(
                    k, *quartiles(v), len(v)) for k, v in enumerate(chunks)) + ")")
        lines.append("setup_s {:.4f} s (q1 {:.4f}, median {:.4f}, q3 {:.4f}, n {})".format(
            setup, *quartiles(setup_walls), len(setup_walls)))
        lines.append(f"failed_frac {run.failed_frac():.4f} ratio ({len(run.failed)} "
                     f"of {len(run.attempted)} operations)")
        lines += [f"{k} {v:.6g} {PER_LAYER_UNITS['quality.' + k]}"
                  for k, v in quality.items()]
        return emit(run, metrics, END_TO_END_UNITS, lines)

    # traced run: each chunk once more, traced, after its untraced run
    untraced = [chunk[0] for chunk in samples]
    traced_samples, traces = [], []
    for k in range(len(workload.chunks)):
        label = f"traced{k}"
        sample, out = workload.rep(run, k, label, traced=True)
        traced_samples.append(sample)
        if out is not None and outputs[k] is not None and out != outputs[k]:
            run.fail(workload.keys(k), "CheckFailed",
                     f"traced chunk {k} output differs from the untraced one")
        # a traced run that failed is already counted by rep
        traces.append(workload.trace(label) or {"spans": [], "counters": {}})
    spans = merge(t["spans"] for t in traces)
    counters = {}
    for t in traces:
        for key, values in t["counters"].items():
            counters.setdefault(key, []).extend(values)
    if is_grid:
        counters["iters_to_converge"] = [p["converged_at"] for out in outputs
                                         if out for p in out]
    untraced_wall = sum(s.wall for s in untraced)
    traced_wall = sum(s.wall for s in traced_samples)
    metrics = per_layer_metrics(spans, counters, workload.op_span,
                                traced_wall - len(traced_samples) * setup,
                                span_resolution())
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["quality.failed_frac"] = run.failed_frac()
    metrics.update({"quality." + k: v for k, v in quality.items()})
    lines.append(f"untraced wall {untraced_wall:.4f} s, traced wall "
                 f"{traced_wall:.4f} s")
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"environment": environment, "metrics": metrics,
                                      "failures": run.failures, "spans": spans}))
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    for name in PER_LAYER_UNITS:
        lines.append(f"{name} {metrics[name]:.6g} {PER_LAYER_UNITS[name]}")
    return emit(run, metrics, PER_LAYER_UNITS, lines)


if __name__ == "__main__":
    sys.exit(main())
