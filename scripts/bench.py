"""Wall time and peak RSS of the tier-1 suite and the two figure configs.

    python scripts/bench.py TAG

Runs, interleaved in five rounds, ``rectoamp run`` on configs/fig1.cfg and
configs/fig2.cfg in every round and the tier-1 suite
(``python -m pytest -q --continue-on-collection-errors``) in the first
three, each as a child process from the repository root with ``src`` on
PYTHONPATH, the figure runs writing to a temporary directory.  A run's wall
time is taken around the child, and its peak RSS is the child's ru_maxrss
from ``os.wait4``.  The children get the environment without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
RECTOAMP_WORKERS, so the program runs with its shipped defaults.

Writes BENCH_<TAG>.json at the repository root: the machine (CPU count and
model), the Python, numpy and BLAS versions, the git commit, every run, and
each target's median and inclusive quartiles of wall time and peak RSS.
Exits 1 if any run exits nonzero (its numbers are kept in the file).
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
TIER1_ROUNDS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "RECTOAMP_WORKERS")


def timed(argv, env):
    """(wall seconds, peak RSS in MiB, exit code) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # the child is reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def machine():
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests",
                            "configs"], cwd=ROOT, capture_output=True,
                           text=True).stdout.split("\n")
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "commit": commit,
            "dirty": [line[3:] for line in dirty if line]}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    tag = argv[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    runs = {"tier1": [], "fig1": [], "fig2": []}
    with tempfile.TemporaryDirectory() as out:
        commands = {
            "tier1": [sys.executable, "-m", "pytest", "-q",
                      "--continue-on-collection-errors"],
            **{fig: [sys.executable, "-m", "rectoamp.cli", "run",
                     f"configs/{fig}.cfg", "--out", str(Path(out) / fig)]
               for fig in ("fig1", "fig2")}}
        for i in range(ROUNDS):
            for target in ("fig1", "fig2") + (("tier1",) if i < TIER1_ROUNDS else ()):
                wall, rss, code = timed(commands[target], env)
                runs[target].append({"wall_s": wall, "peak_rss_mib": rss,
                                     "exit_code": code})
                print(f"{target} round {i}: {wall:.2f} s, {rss:.1f} MiB, "
                      f"exit {code}", flush=True)
    result = {"tag": tag, "machine": machine(), "runs": runs,
              "summary": {target: {key: summary([r[key] for r in rs])
                                   for key in ("wall_s", "peak_rss_mib")}
                          for target, rs in runs.items()}}
    path = ROOT / f"BENCH_{tag}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")
    return int(any(r["exit_code"] for rs in runs.values() for r in rs))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
