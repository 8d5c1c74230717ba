"""Traced ``rectoamp run`` for the fig* workloads.

Before it calls ``rectoamp.cli.main(["run", ...])``, this script replaces
the module-level names that the program calls (in ``rectoamp.harness``,
``rectoamp.oamp`` and ``rectoamp.cli``, and ``ShrinkageSet``'s atom scan)
by wrappers that time each call in a span of its layer.  Nothing in
``src/`` is patched on disk and no program code is copied: the spans
follow whatever the program does.  The run script checks that the traced
CSV is byte-identical to the untraced one at the same seeds.

    python3 perfbench/pipeline.py CONFIG --seeds 1,2 --out PREFIX --result JSON
"""

from __future__ import annotations

import argparse
import json
import sys

from rectoamp import cli, harness, oamp, spectra

from tracing import Tracer

# (module, name, span): every call of module.name is timed as span
WRAPPED = [
    (harness, "run_experiment", "harness.experiment"),
    (harness, "se_predictions", "harness.predictions"),
    (harness, "build_spectrum", "spectra.build"),
    (harness, "ShrinkageSet", "spectra.shrinkage"),
    (harness, "optimal_se_run", "state_evolution.se"),
    # the Gaussian-noise scalar recursion behind AMP's predictions
    (harness, "amp_se_trajectory", "state_evolution.fixed_point"),
    (harness, "make_instance", "model.instance"),
    (harness, "thin_svd", "model.svd"),
    (harness, "optimal_oamp_run", "oamp.run"),
    (oamp, "DenoiserSet", "oamp.schedule"),
    (oamp, "apply_left", "oamp.matvec"),
    (oamp, "apply_right", "oamp.matvec"),
    (oamp, "apply_cross_left", "oamp.matvec"),
    (oamp, "apply_cross_right", "oamp.matvec"),
    (harness, "gaussian_amp_run", "baselines.amp"),
    (harness, "pca_estimate", "baselines.pca"),
    (cli, "write_report", "harness.emit"),
]


def scan_bytes(spectrum) -> int:
    """Computed size of one atom-scan temporary: scan points x quadrature
    nodes x complex128.  The Marchenko-Pastur transform is closed form, so
    its scan holds one complex value per point."""
    nodes = 1 if spectrum.kind == "marchenko_pastur" else len(spectrum.nodes)
    return spectra.ROOT_SCAN_POINTS * nodes * 16


def trace_atom_scan(tracer, counters):
    """Time ``ShrinkageSet.find_spectral_atoms`` as ``spectra.atoms`` and
    count the size of its scan."""
    counters.setdefault("scan_bytes", [])
    tracer.wrap(spectra.ShrinkageSet, "find_spectral_atoms", "spectra.atoms",
                record=lambda _, shrink, *__: counters["scan_bytes"].append(
                    scan_bytes(shrink.spectrum)))


def install(tracer, counters):
    """Wrap every name in WRAPPED, plus the per-seed call, which opens the
    operation span, and the counters taken from return values."""
    trace_atom_scan(tracer, counters)
    counters.update(iters_to_converge=[], instance_bytes=[], svd_bytes=[])
    records = {
        "optimal_se_run": lambda tr, *args: counters["iters_to_converge"].append(
            tr.converged_at or args[3]),
        "make_instance": lambda inst, *_: counters["instance_bytes"].append(sum(
            x.nbytes for x in (inst.Y, inst.W, inst.u_star, inst.v_star,
                               inst.a, inst.b))),
        "thin_svd": lambda svd, *_: counters["svd_bytes"].append(
            svd.singular_values.nbytes + svd.U.nbytes + svd.V.nbytes),
    }
    for module, name, span in WRAPPED:
        tracer.wrap(module, name, span, record=records.get(name))
    tracer.wrap(harness, "run_single_seed", "harness.seed", seed_arg=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True, help="output path prefix")
    parser.add_argument("--result", required=True, help="JSON with spans and counters")
    args = parser.parse_args(argv)
    tracer, counters = Tracer(), {}
    install(tracer, counters)
    with tracer.span("cli.run"):
        code = cli.main(["run", args.config, "--workers", "1", "--seeds", args.seeds,
                         "--out", args.out])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.finished(), "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
