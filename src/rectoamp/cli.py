"""Command-line interface: experiment runs, state-evolution predictions,
spectral-measure self-checks, and the Gaussian fixed-point solver.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (DOMAIN_ERRORS, ConfigError, HarnessError, load_config,
                      run_experiment, write_report)
from .scalar_channel import ScalarChannel
from .spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet, detection_threshold
from .state_evolution import gaussian_fixed_point, optimal_se_run

USAGE_EXIT = 2


def _spectrum_args(parser):
    parser.add_argument("--spectrum", choices=["mp", "beta"], default="mp")
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--beta-a", type=float, default=1.5)
    parser.add_argument("--beta-b", type=float, default=1.5)
    parser.add_argument("--beta-lo", type=float, default=1.0)
    parser.add_argument("--beta-hi", type=float, default=3.0)


def _make_spectrum(args):
    if args.spectrum == "mp":
        return MarchenkoPastur(args.delta)
    return ShiftedBeta(args.beta_a, args.beta_b, args.beta_lo, args.beta_hi, args.delta)


def _cmd_run(args) -> int:
    overrides = {}
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.out is not None:
        overrides["out"] = args.out
    if args.methods is not None:
        overrides["methods"] = args.methods
    if args.workers is not None:
        overrides["workers"] = args.workers
    try:
        cfg = load_config(args.config, overrides)
    except (OSError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    report = run_experiment(cfg)
    csv_path, meta_path = write_report(report, cfg.out)
    print(f"wrote {csv_path} and {meta_path} "
          f"({report.n_seeds} seeds, {len(report.failures)} failures)")
    return 0


def _cmd_se(args) -> int:
    if args.iters < 1:
        raise ConfigError(f"iters must be >= 1, got {args.iters}")
    spectrum = _make_spectrum(args)
    shrink = ShrinkageSet(spectrum, args.theta)
    channel = ScalarChannel(args.prior, args.w0)
    trace = optimal_se_run(shrink, channel, channel, args.iters)
    w1, w2, m_u, m_v = gaussian_fixed_point(args.theta, args.delta,
                                            channel, channel)
    print(f"# gaussian fixed point: w1={w1:.10f} w2={w2:.10f} "
          f"mmse_u={m_u:.6g} mmse_v={m_v:.6g}")
    print("t w1 w2 cos2_u cos2_v mmse_u mmse_v")
    for t in range(args.iters):
        print(f"{t + 1} {trace.w1[t]:.10f} {trace.w2[t]:.10f} "
              f"{trace.cos2_u[t]:.6f} {trace.cos2_v[t]:.6f} "
              f"{trace.mmse_u[t]:.6g} {trace.mmse_v[t]:.6g}")
    return 0


def _cmd_fixed_point(args) -> int:
    channel = ScalarChannel(args.prior, args.w0)
    w1, w2, m_u, m_v = gaussian_fixed_point(args.theta, args.delta,
                                            channel, channel)
    print(f"w1={w1:.12f}\nw2={w2:.12f}\nmmse_u={m_u:.10g}\nmmse_v={m_v:.10g}")
    print(f"cos2_u={1 - m_u:.10f}\ncos2_v={1 - m_v:.10f}")
    return 0


def _cmd_spectra_check(args) -> int:
    spectrum = _make_spectrum(args)
    shrink = ShrinkageSet(spectrum, args.theta)
    measures = shrink.build_induced_measures()
    checks = []

    one = lambda _: 1.0
    checks.append(("nu1 total mass = 1",
                   abs(measures.nu1.integrate(one) - 1.0), 2e-3))
    checks.append(("nu2 total mass = 1",
                   abs(measures.nu2.integrate(one) - 1.0), 2e-3))
    checks.append(("nu3 total mass = 0",
                   abs(measures.nu3.integrate(one)), 2e-3))
    d, th = spectrum.delta, args.theta
    checks.append(("<sigma>_nu3 = theta sqrt(delta)/(1+delta)",
                   abs(measures.nu3.integrate(lambda s: s)
                       - th * np.sqrt(d) / (1.0 + d)), 2e-3))
    # Stieltjes identities at a complex off-support point
    z = complex(spectrum.support[1] + 1.0, 0.7)
    s_mu = spectrum.stieltjes(z)
    c = spectrum.c_transform(z)
    s1 = measures.nu1.integrate(lambda l: 1.0 / (z - l))
    s2 = measures.nu2.integrate(lambda l: 1.0 / (z - l))
    checks.append(("S_nu1 identity",
                   abs(s1 - s_mu / (1.0 - th ** 2 * c)), 5e-3))
    checks.append(("S_nu2 identity",
                   abs(s2 - (d * s_mu + (1.0 - d) / z) / (1.0 - th ** 2 * c)),
                   5e-3))

    threshold = detection_threshold(spectrum)
    print(f"# detection threshold: theta_c = {threshold:.6f}")
    for atom in measures.atoms:
        side = "above" if atom.location > spectrum.support[1] else "below"
        print(f"# atom at lambda* = {atom.location:.6f}: nu1 mass "
              f"{atom.nu1_mass:.6f}, nu2 mass {atom.nu2_mass:.6f} "
              f"({side} the support)")
    failed = 0
    for name, err, tol in checks:
        ok = err <= tol
        failed += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: residual {err:.3g} "
              f"(tol {tol})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rectoamp",
        description="Rank-one estimation in rectangular spiked matrix models "
                    "with rotationally invariant noise")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seeds", help="seed count or comma-separated list")
    p_run.add_argument("--out", help="output path prefix")
    p_run.add_argument("--methods", help="comma-separated method subset")
    p_run.add_argument("--workers", type=int, help="parallel worker count")

    p_se = sub.add_parser("se", help="print state-evolution predictions")
    _spectrum_args(p_se)
    p_se.add_argument("--theta", type=float, required=True)
    p_se.add_argument("--prior", choices=["rademacher", "gaussian"],
                      default="rademacher")
    p_se.add_argument("--w0", type=float, default=0.04)
    p_se.add_argument("--iters", type=int, default=10)

    p_fp = sub.add_parser("fixed-point", help="solve the Gaussian-noise "
                                              "fixed-point system")
    p_fp.add_argument("--theta", type=float, required=True)
    p_fp.add_argument("--delta", type=float, default=0.5)
    p_fp.add_argument("--prior", choices=["rademacher", "gaussian"],
                      default="rademacher")
    p_fp.add_argument("--w0", type=float, default=0.04)

    p_sc = sub.add_parser("spectra-check", help="validate the induced "
                                                "spectral measures")
    _spectrum_args(p_sc)
    p_sc.add_argument("--theta", type=float, default=2.0)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    handlers = {"run": _cmd_run, "se": _cmd_se,
                "fixed-point": _cmd_fixed_point,
                "spectra-check": _cmd_spectra_check}
    try:
        return handlers[args.command](args)
    except (ConfigError, HarnessError, *DOMAIN_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
