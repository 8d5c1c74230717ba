"""Reference outputs of the drift gate (``tests/test_drift.py``).

Each case is one CLI invocation whose output the gate pins:

- fig1- and fig2-shaped runs: the shipped configs at M = 200, N = 400,
  3 seeds and 10 iterations, run serially in one process as every run is
  (their CSV), and fig1 at M = N = 200, where seed 0 takes the direct-SVD
  fallback of ``model.thin_svd``;
- ``se`` for MP and Beta at delta = 0.5 and delta = 1 (stdout);
- ``spectra-check`` for MP and Beta (stdout).

The gate compares every cell.  In a CSV, ``pred_*`` cells may move by 1e-12
relative and the empirical columns by 1e-12 absolute; every printed number
may move by 1e-12 relative; any text, ``method`` and ``t`` must match.  Bit
equality is not asked for, since the empirical columns depend on the BLAS
build and its thread count.

Regenerating a reference is a deliberate act:

    PYTHONPATH=src python tests/drift_references.py [CASE ...]

rewrites the references of the named cases in ``tests/data/``, or of every
case when none is named, and prints the largest drift per column against
the references it replaces; a change that regenerates them states that
drift and why it is intended.  Naming only the cases a change moves on
purpose leaves the others, and the drift they are allowed, as they were.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import sys
import tempfile
from pathlib import Path

from rectoamp import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# appended to a shipped config: a later key overrides an earlier one
SMALL_RUN = "M = 200\nN = 400\nseeds = 3\niters = 10\n"
# case: (shipped config, keys appended after SMALL_RUN)
RUNS = {"fig1": ("configs/fig1.cfg", ""), "fig2": ("configs/fig2.cfg", ""),
        # MP at delta = 1; seed 0's Gram eigenvalue ratio is 2.7e-9
        "fig1_square": ("configs/fig1.cfg", "N = 200\n")}
PRINTS = {
    "se_mp_0.5": ["se", "--theta", "2", "--delta", "0.5"],
    "se_mp_1": ["se", "--theta", "2", "--delta", "1"],
    "se_beta_0.5": ["se", "--theta", "2", "--delta", "0.5", "--spectrum", "beta"],
    "se_beta_1": ["se", "--theta", "2", "--delta", "1", "--spectrum", "beta"],
    "spectra_check_mp": ["spectra-check", "--theta", "2"],
    "spectra_check_beta": ["spectra-check", "--theta", "2", "--spectrum", "beta"],
}
CASES = (*RUNS, *PRINTS)
TOLERANCE = 1e-12
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def reference_path(case: str) -> Path:
    return DATA / (f"{case}.csv" if case in RUNS else f"{case}.txt")


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rectoamp {' '.join(argv)} exited {code}")
    return out.getvalue()


def render(case: str) -> str:
    """The case's output from the rectoamp that is imported."""
    if case in PRINTS:
        return _cli(PRINTS[case])
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        config, extra = RUNS[case]
        cfg.write_text((ROOT / config).read_text() + SMALL_RUN + extra
                       + f"out = {tmp}/run\n")
        _cli(["run", str(cfg)])
        return (Path(tmp) / "run.csv").read_text()


def _cells(case: str, text: str):
    """(column, value) of every cell: a CSV cell by its column name, a
    printed token by its line and the index of the number on that line."""
    if case in RUNS:
        for row in csv.DictReader(io.StringIO(text)):
            yield from row.items()
        return
    for line_no, line in enumerate(text.splitlines(), 1):
        parts = _NUMBER.split(line)
        yield f"line {line_no} text", "".join(parts[::2])
        for k, number in enumerate(parts[1::2], 1):
            yield f"number {k}", number


def drifts(case: str, reference: str, output: str) -> dict:
    """{column: (largest drift, within tolerance)} of ``output`` against
    ``reference``.  A numeric drift is relative, except in a CSV's
    empirical columns, where it is absolute; a text cell drifts by inf
    unless it is equal."""
    ref, new = list(_cells(case, reference)), list(_cells(case, output))
    if [c for c, _ in ref] != [c for c, _ in new]:
        return {"layout": (math.inf, False)}
    out = {}
    for (column, a), (_, b) in zip(ref, new):
        if column in ("method", "t") or column.endswith(" text"):
            drift = 0.0 if a == b else math.inf
        else:
            a, b = float(a), float(b)
            drift = abs(a - b)
            if case not in RUNS or column.startswith("pred_"):
                drift = drift / max(abs(a), abs(b)) if drift else 0.0
        worst = max(out.get(column, (0.0,))[0], drift)
        out[column] = (worst, worst <= TOLERANCE)
    return out


def main(cases) -> int:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        print(f"unknown case {', '.join(unknown)}; the cases are {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    cases = cases or CASES
    DATA.mkdir(parents=True, exist_ok=True)
    for case in cases:
        path = reference_path(case)
        output = render(case)
        if path.exists():
            for column, (drift, ok) in drifts(case, path.read_text(), output).items():
                if drift or not ok:
                    print(f"{case} {column}: {drift:.3g}{'' if ok else ' (above tolerance)'}")
        path.write_text(output)
    print(f"wrote {len(cases)} references to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
