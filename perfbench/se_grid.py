"""The ``se_grid`` workload: spectral engine and state evolution over a grid.

No instances are drawn.  The grid is {mp, beta} x delta in {0.5, 1} x six
SNRs: 0, theta_c/2, theta_c(1 - 1e-3), theta_c(1 + 1e-3), 2 and 3, where
theta_c is ``detection_threshold`` of the spectrum.  The seed jitters the
SNRs that are not at the threshold by up to +-5 %.  At each point the
sweep builds the induced measures (with their atoms), evaluates the
``rectoamp spectra-check`` identities, runs the state evolution for
``iters`` steps and, for mp, solves the Gaussian fixed point.  The rows
(spectrum, delta) asked for run in this one process, serially.  A point
that raises, or whose outputs fail a check, is a failed operation; it is
recorded and the sweep goes on.

    python3 perfbench/se_grid.py CONFIG --seed N --result JSON
        [--kinds mp,beta] [--deltas 0.5,1] [--trace]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random

import numpy as np

from rectoamp import harness
from rectoamp.spectra import ShrinkageSet, detection_threshold
from rectoamp.state_evolution import gaussian_fixed_point, optimal_se_run

from pipeline import trace_atom_scan
from tracing import NullTracer, Tracer

KINDS = ("mp", "beta")
DELTAS = (0.5, 1.0)
THETAS = ("zero", "half_threshold", "below_threshold", "above_threshold",
          "two", "three")
AT_THRESHOLD = ("below_threshold", "above_threshold")
JITTER = 0.05
M_BASE = 1000


class CheckFailed(Exception):
    pass


def theta_value(label, theta_c, jitter):
    base = {"zero": 0.0, "half_threshold": theta_c / 2,
            "below_threshold": theta_c * (1 - 1e-3),
            "above_threshold": theta_c * (1 + 1e-3),
            "two": 2.0, "three": 3.0}[label]
    return base if label in AT_THRESHOLD else base * (1 + JITTER * jitter)


def spectra_residuals(spectrum, measures, theta):
    """The identities of ``rectoamp spectra-check``: {name: (residual, tol)}."""
    one = lambda _: 1.0
    d = spectrum.delta
    z = complex(spectrum.support[1] + 1.0, 0.7)
    s_mu = spectrum.stieltjes(z)
    c = spectrum.c_transform(z)
    s1 = measures.nu1.integrate(lambda l: 1.0 / (z - l))
    s2 = measures.nu2.integrate(lambda l: 1.0 / (z - l))
    return {
        "nu1_mass": (abs(measures.nu1.integrate(one) - 1.0), 2e-3),
        "nu2_mass": (abs(measures.nu2.integrate(one) - 1.0), 2e-3),
        "nu3_mass": (abs(measures.nu3.integrate(one)), 2e-3),
        "nu3_first_moment": (abs(measures.nu3.integrate(lambda s: s)
                                 - theta * np.sqrt(d) / (1.0 + d)), 2e-3),
        "stieltjes_nu1": (abs(s1 - s_mu / (1.0 - theta ** 2 * c)), 5e-3),
        "stieltjes_nu2": (abs(s2 - (d * s_mu + (1.0 - d) / z)
                              / (1.0 - theta ** 2 * c)), 5e-3),
    }


def grid_point(spectrum, theta, channels, iters, tracer):
    with tracer.span("spectra.shrinkage"):
        shrink = ShrinkageSet(spectrum, theta)
    # the atom scan inside it is timed as spectra.atoms (see trace_atom_scan)
    with tracer.span("spectra.measures"):
        measures = shrink.build_induced_measures()
    with tracer.span("spectra.check"):
        residuals = spectra_residuals(spectrum, measures, theta)
    with tracer.span("state_evolution.se"):
        se = optimal_se_run(shrink, *channels, iters)
    fixed_point = None
    if spectrum.kind == "marchenko_pastur":
        with tracer.span("state_evolution.fixed_point"):
            _, _, m_u, m_v = gaussian_fixed_point(theta, spectrum.delta,
                                                  *channels)
        fixed_point = [1.0 - m_u, 1.0 - m_v]

    for name, (res, tol) in residuals.items():
        if not res <= tol:
            raise CheckFailed(f"{name} residual {res:.3g} above {tol}")
    curves = se.cos2_u + se.cos2_v + (fixed_point or [])
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in curves):
        raise CheckFailed(f"overlap outside [0, 1]: {curves}")
    return {"residuals": {k: r for k, (r, _) in residuals.items()},
            "atoms": [a.location for a in measures.atoms],
            "cos2_u": se.cos2_u, "cos2_v": se.cos2_v,
            "converged_at": se.converged_at or iters,
            "fixed_point": fixed_point}


def sweep(base_cfg, seed, tracer, kinds=KINDS, deltas=DELTAS):
    """Run the grid rows (kind, delta) asked for; returns (points, failures)."""
    rng = random.Random(seed)
    # drawn for the whole grid, so a point's SNR does not depend on which
    # rows run
    jitter = {(k, d, t): rng.uniform(-1.0, 1.0)
              for k in KINDS for d in DELTAS for t in THETAS}
    channels = harness.build_channels(base_cfg)
    points, failures = [], []
    for kind in kinds:
        for delta in deltas:
            cfg = dataclasses.replace(base_cfg, spectrum=kind, M=M_BASE,
                                      N=round(M_BASE / delta))
            with tracer.span("spectra.build"):
                spectrum = harness.build_spectrum(cfg)
            with tracer.span("spectra.threshold"):
                theta_c = detection_threshold(spectrum)
            for label in THETAS:
                theta = theta_value(label, theta_c, jitter[kind, delta, label])
                point = f"{kind}/delta={delta}/{label}"
                with tracer.span("se_grid.point", seed=point):
                    try:
                        out = grid_point(spectrum, theta, channels,
                                         base_cfg.iters, tracer)
                    except Exception as exc:   # noqa: BLE001 - per-point isolation
                        failures.append({"workload": "se_grid", "point": point,
                                         "theta": theta, "type": type(exc).__name__,
                                         "message": str(exc)})
                        continue
                points.append(dict(out, point=point, theta=theta))
    return points, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="config giving priors, w0 and iters")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--kinds", default=",".join(KINDS))
    parser.add_argument("--deltas", default=",".join(map(str, DELTAS)))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    cfg = harness.load_config(args.config)
    kinds = tuple(args.kinds.split(","))
    deltas = tuple(float(d) for d in args.deltas.split(","))
    if not set(kinds) <= set(KINDS) or not set(deltas) <= set(DELTAS):
        parser.error(f"the grid rows are {KINDS} x {DELTAS}")
    counters = {}
    if args.trace:
        tracer = Tracer()
        trace_atom_scan(tracer, counters)
    else:
        tracer = NullTracer()
    with tracer.span("se_grid.sweep"):
        points, failures = sweep(cfg, args.seed, tracer, kinds, deltas)
    result = {"points": points, "failures": failures, "counters": counters}
    if args.trace:
        result["spans"] = tracer.finished()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
