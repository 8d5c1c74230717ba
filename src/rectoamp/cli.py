"""Command-line interface: experiment runs, state-evolution predictions,
spectral-measure self-checks, and the Gaussian fixed-point solver.

Each subcommand checks its inputs as one ``ExperimentConfig`` (a flag sets
the key it names); the exit code is 0 on success, 2 for invalid input
(before any work) and 1 when the computation fails.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness
from .harness import (DOMAIN_ERRORS, ConfigError, HarnessError, build_channels,
                      build_spectrum, load_config, parse_config, write_report)
from .spectra import ShrinkageSet, detection_threshold
from .state_evolution import gaussian_fixed_point, optimal_se_run

USAGE_EXIT = 2


def _spectrum_args(parser):
    parser.add_argument("--spectrum", choices=["mp", "beta"])
    parser.add_argument("--delta", type=float, help="aspect ratio M/N in (0, 1]")
    for key in ("beta_a", "beta_b", "beta_lo", "beta_hi"):
        parser.add_argument("--" + key.replace("_", "-"), type=float)


def _config(args: dict):
    """The subcommand's inputs as one checked config."""
    path = args.pop("config", None)
    if "delta" in args:
        delta = args.pop("delta")
        if not 0.0 < delta <= 1.0:
            raise ConfigError(f"--delta must be in (0, 1], got {delta}")
        # the float's exact ratio, so that M / N is delta bit for bit
        args["M"], args["N"] = delta.as_integer_ratio()
    for flag in ("prior", "w0"):    # sets both sides, flag_u and flag_v
        if flag in args:
            args.update(dict.fromkeys((flag + "_u", flag + "_v"), args.pop(flag)))
    if path is None:    # se, fixed-point and spectra-check draw no instance
        return parse_config("", {**args, "methods": "se-only"})
    return load_config(path, args)


def _cmd_run(cfg) -> int:
    try:
        os.makedirs(os.path.dirname(cfg.out) or os.curdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from exc
    # through the module, so that a wrapper of harness.run_experiment (the
    # benchmark's tracer) sees the call
    report = harness.run_experiment(cfg)
    csv_path, meta_path = write_report(report, cfg.out)
    print(f"wrote {csv_path} and {meta_path} ({report.metadata['n_seeds_used']} seeds, "
          f"{len(report.metadata['failures'])} failures)")
    return 0


def _cmd_se(cfg) -> int:
    shrink = ShrinkageSet(build_spectrum(cfg), cfg.theta)
    channel_u, channel_v = build_channels(cfg)
    trace = optimal_se_run(shrink, channel_u, channel_v, cfg.iters)
    if cfg.spectrum == "mp":    # on MP noise it is the OAMP limit
        w1, w2, m_u, m_v = gaussian_fixed_point(cfg.theta, cfg.delta,
                                                channel_u, channel_v)
        print(f"# gaussian fixed point: w1={w1:.10f} w2={w2:.10f} "
              f"mmse_u={m_u:.6g} mmse_v={m_v:.6g}")
    print("t w1 w2 cos2_u cos2_v mmse_u mmse_v")
    for t in range(cfg.iters):
        print(f"{t + 1} {trace.w1[t]:.10f} {trace.w2[t]:.10f} "
              f"{trace.cos2_u[t]:.6f} {trace.cos2_v[t]:.6f} "
              f"{trace.mmse_u[t]:.6g} {trace.mmse_v[t]:.6g}")
    return 0


def _cmd_fixed_point(cfg) -> int:
    w1, w2, m_u, m_v = gaussian_fixed_point(cfg.theta, cfg.delta,
                                            *build_channels(cfg))
    print(f"w1={w1:.12f}\nw2={w2:.12f}\nmmse_u={m_u:.10g}\nmmse_v={m_v:.10g}")
    print(f"cos2_u={1 - m_u:.10f}\ncos2_v={1 - m_v:.10f}")
    return 0


def _cmd_spectra_check(cfg) -> int:
    spectrum = build_spectrum(cfg)
    shrink = ShrinkageSet(spectrum, cfg.theta)
    measures = shrink.build_induced_measures()
    one = lambda _: 1.0
    d, th = spectrum.delta, cfg.theta
    # Stieltjes identities at a complex off-support point
    z = complex(spectrum.support[1] + 1.0, 0.7)
    s_mu, c = spectrum.stieltjes(z), spectrum.c_transform(z)
    s1 = measures.nu1.integrate(lambda l: 1.0 / (z - l))
    s2 = measures.nu2.integrate(lambda l: 1.0 / (z - l))
    checks = [
        ("nu1 total mass = 1", abs(measures.nu1.integrate(one) - 1.0), 2e-3),
        ("nu2 total mass = 1", abs(measures.nu2.integrate(one) - 1.0), 2e-3),
        ("nu3 total mass = 0", abs(measures.nu3.integrate(one)), 2e-3),
        ("<sigma>_nu3 = theta sqrt(delta)/(1+delta)",
         abs(measures.nu3.integrate(lambda s: s) - th * np.sqrt(d) / (1.0 + d)), 2e-3),
        ("S_nu1 identity", abs(s1 - s_mu / (1.0 - th ** 2 * c)), 5e-3),
        ("S_nu2 identity", abs(s2 - (d * s_mu + (1.0 - d) / z) / (1.0 - th ** 2 * c)),
         5e-3)]

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
    if failed:
        raise HarnessError(f"{failed} of {len(checks)} spectral checks failed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rectoamp",
        description="Rank-one estimation in rectangular spiked matrix models "
                    "with rotationally invariant noise")
    sub = parser.add_subparsers()
    # a flag left out stays out of the namespace: the config's default holds
    flags = {"argument_default": argparse.SUPPRESS}

    p_run = sub.add_parser("run", help="run a configured experiment", **flags)
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seeds", help="seed count or comma-separated list")
    p_run.add_argument("--out", help="output path prefix")
    p_run.add_argument("--methods", help="comma-separated method subset")
    p_run.add_argument("--workers", type=int, help="parallel worker count")
    p_run.set_defaults(handler=_cmd_run)

    p_se = sub.add_parser("se", help="print state-evolution predictions", **flags)
    _spectrum_args(p_se)
    p_se.add_argument("--iters", type=int)
    p_se.set_defaults(handler=_cmd_se)

    p_fp = sub.add_parser("fixed-point", help="solve the Gaussian-noise "
                                              "fixed-point system", **flags)
    p_fp.add_argument("--delta", type=float, help="aspect ratio M/N in (0, 1]")
    p_fp.set_defaults(handler=_cmd_fixed_point)
    for parser_ in (p_se, p_fp):
        parser_.add_argument("--theta", type=float, required=True)
        parser_.add_argument("--prior", choices=["rademacher", "gaussian"])
        parser_.add_argument("--w0", type=float, help="side-information strength")

    p_sc = sub.add_parser("spectra-check", help="validate the induced "
                                                "spectral measures", **flags)
    _spectrum_args(p_sc)
    p_sc.add_argument("--theta", type=float)
    p_sc.set_defaults(handler=_cmd_spectra_check)

    args = vars(parser.parse_args(argv))
    handler = args.pop("handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return handler(_config(args))
    except (ConfigError, HarnessError, *DOMAIN_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
