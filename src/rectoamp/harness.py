"""Experiment orchestration: config parsing, seeded parallel runs,
aggregation, and CSV/JSON emission of empirical-vs-predicted curves.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .baselines import BaselineError, gaussian_amp_run, pca_estimate
from .model import ModelError, make_instance, thin_svd
from .oamp import IterationTrace, OampError, optimal_oamp_run
from .scalar_channel import ChannelError, ScalarChannel
from .spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet, SpectraError
from .state_evolution import (SeTrace, StateEvolutionError, amp_se_trajectory,
                              optimal_se_run)

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("oamp", "amp", "pca", "se-only")
CSV_FIELDS = ("method", "t", "mean_cos2_u", "se_cos2_u", "mean_cos2_v",
              "se_cos2_v", "pred_cos2_u", "pred_cos2_v", "mean_mse_u",
              "mean_mse_v")
MAX_FAILURE_FRACTION = 0.2
# what the metadata JSON records of each strength schedule
SCHEDULE_FIELDS = {"oamp": ("w1", "w2", "rho1", "rho2", "converged_at"),
                   "amp": ("w1", "w2")}
# a seed that raises one of these has failed; anything else is a bug
DOMAIN_ERRORS = (ChannelError, SpectraError, ModelError, StateEvolutionError,
                 OampError, BaselineError)


class ConfigError(Exception):
    pass


class HarnessError(Exception):
    pass


@dataclass
class ExperimentConfig:
    theta: float = 2.0
    M: int = 1000
    N: int = 2000
    spectrum: str = "mp"          # "mp": i.i.d. Gaussian noise | "beta": RI noise
    beta_a: float = 1.5
    beta_b: float = 1.5
    beta_lo: float = 1.0
    beta_hi: float = 3.0
    prior_u: str = "rademacher"
    prior_v: str = "rademacher"
    w0_u: float = 0.04
    w0_v: float = 0.04
    iters: int = 10
    seeds: tuple = tuple(range(20))
    methods: tuple = ("oamp", "pca")
    out: str = "results/run"
    workers: int | None = None

    @property
    def delta(self) -> float:
        return self.M / self.N

    def validate(self):
        if self.M <= 0 or self.N <= 0 or self.M > self.N:
            raise ConfigError(f"need 0 < M <= N, got M={self.M}, N={self.N}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be distinct and nonnegative, got "
                              f"{list(self.seeds)}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.spectrum not in ("mp", "beta"):
            raise ConfigError(f"unknown spectrum {self.spectrum!r}")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods must be non-empty and distinct, got "
                              f"{list(self.methods)}")
        memory, observation = _physical_memory(), 8 * self.M * self.N
        if set(self.methods) != {"se-only"} and 0 < memory < observation:
            raise ConfigError(f"the {self.M} x {self.N} observation ({observation / 2**30:.3g} "
                              f"GiB) exceeds the {memory / 2**30:.3g} GiB of physical memory")
        if not 0.0 <= self.theta < np.inf:
            raise ConfigError(f"theta must be finite and nonnegative, got {self.theta}")
        try:
            build_channels(self)
        except ChannelError as exc:
            raise ConfigError(str(exc)) from exc
        if 0.0 in (self.w0_u, self.w0_v):
            raise ConfigError("w0_u, w0_v must be positive: without side information "
                              "the OAMP schedule fails at t = 1 and AMP's alignment vanishes")
        beta = (self.beta_a, self.beta_b, self.beta_lo, self.beta_hi)
        if not (0.0 < self.beta_a < np.inf and 0.0 < self.beta_b < np.inf
                and 0.0 <= self.beta_lo < self.beta_hi < np.inf):
            raise ConfigError("need finite beta_a, beta_b > 0 and 0 <= beta_lo < beta_hi, "
                              f"got (a, b, lo, hi) = {beta}")
        if (self.spectrum == "beta" and self.beta_lo == 0.0 and self.beta_a <= 1.0
                and self.M < self.N):
            raise ConfigError("beta_lo = 0 with M < N needs beta_a > 1: the Hilbert transform "
                              "at 0, which the lambda = 0 branch of phi2 reads, diverges")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        return self


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where ``os.sysconf`` cannot tell."""
    try:
        return max(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 0)
    except (AttributeError, ValueError, OSError):
        return 0


def _parse_seeds(val: str) -> tuple:
    parts = [p.strip() for p in val.split(",") if p.strip()]
    if len(parts) == 1 and int(parts[0]) >= 0 and "," not in val:
        return tuple(range(int(parts[0])))
    return tuple(int(p) for p in parts)


_KEYS = {f.name for f in fields(ExperimentConfig)}
# how a text value becomes its key's type; the other keys keep the text
_PARSERS = {**dict.fromkeys(("M", "N", "iters", "workers"), int),
            **dict.fromkeys(("theta", "beta_a", "beta_b", "beta_lo", "beta_hi",
                             "w0_u", "w0_v"), float),
            "seeds": _parse_seeds,
            "methods": lambda val: tuple(m.strip() for m in val.split(",") if m.strip())}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the flat key = value config format (# starts a comment)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    values.update(overrides or {})

    cfg = ExperimentConfig()
    for key, val in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, str) and key in _PARSERS:
            try:
                val = _PARSERS[key](val)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            except MemoryError:
                raise ConfigError(f"{key}: {val} does not fit in memory") from None
        setattr(cfg, key, val)
    return cfg.validate()


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text, overrides)


# -- assembly -------------------------------------------------------------------

def build_spectrum(cfg: ExperimentConfig):
    if cfg.spectrum == "mp":
        return MarchenkoPastur(cfg.delta)
    return ShiftedBeta(cfg.beta_a, cfg.beta_b, cfg.beta_lo, cfg.beta_hi, cfg.delta)


def build_channels(cfg: ExperimentConfig):
    return (ScalarChannel(cfg.prior_u, cfg.w0_u),
            ScalarChannel(cfg.prior_v, cfg.w0_v))


def se_predictions(cfg: ExperimentConfig, shrinkage: ShrinkageSet) -> dict:
    """Each method's prediction, the ``SeTrace`` its seeds run along: the OAMP
    and AMP strength schedules with their cos^2 curves, and for PCA one step
    whose overlaps are the masses of the atom above the support, if any."""
    channel_u, channel_v = build_channels(cfg)
    predictions = {}
    if "oamp" in cfg.methods or "se-only" in cfg.methods:
        predictions["oamp"] = optimal_se_run(shrinkage, channel_u, channel_v,
                                             cfg.iters)
    if "amp" in cfg.methods:
        predictions["amp"] = amp_se_trajectory(cfg.theta, cfg.delta, channel_u,
                                               channel_v, cfg.iters)
    if "pca" in cfg.methods:
        # PCA takes the top eigenvector: the atom above the support, if any
        hi = shrinkage.spectrum.support[1]
        above = [a for a in shrinkage.find_spectral_atoms() if a.location > hi]
        nu1, nu2 = (above[0].nu1_mass, above[0].nu2_mass) if above else (0.0, 0.0)
        predictions["pca"] = SeTrace(cos2_u=[nu1], cos2_v=[nu2])
    return predictions


def run_single_seed(cfg: ExperimentConfig, seed: int, shrinkage: ShrinkageSet,
                    predictions: dict) -> dict:
    """Run every simulated method on one instance with the run's shrinkage
    set, along the schedules of ``se_predictions``; returns one
    ``IterationTrace`` per method."""
    channel_u, channel_v = build_channels(cfg)
    inst = make_instance(channel_u, channel_v, shrinkage.spectrum, cfg.M, cfg.N,
                         cfg.theta, seed)
    svd = thin_svd(inst.Y)
    out = {}
    if "oamp" in cfg.methods:
        out["oamp"] = optimal_oamp_run(inst, svd, shrinkage, channel_u, channel_v,
                                       predictions["oamp"])
    if "amp" in cfg.methods:
        out["amp"] = gaussian_amp_run(inst, channel_u, channel_v, predictions["amp"])
    if "pca" in cfg.methods:
        out["pca"] = IterationTrace()
        out["pca"].record(*pca_estimate(inst, svd), inst)
    return out


def _seed_outcome(cfg: ExperimentConfig, seed: int, shrinkage: ShrinkageSet,
                  predictions: dict):
    """``run_single_seed``'s traces, or the message of the domain error that
    failed the seed; any other exception propagates."""
    try:
        return run_single_seed(cfg, seed, shrinkage, predictions)
    except DOMAIN_ERRORS as exc:
        return str(exc)


@dataclass
class AggregateReport:
    rows: list        # dicts matching CSV_FIELDS, deterministic order
    metadata: dict


def _aggregate(per_seed: dict, predictions: dict, cfg: ExperimentConfig) -> list:
    rows = []
    for method in (m for m in cfg.methods if m != "se-only"):
        traces = [per_seed[s][method] for s in sorted(per_seed)]
        cu, cv, mu, mv = (np.array([getattr(tr, key) for tr in traces])
                          for key in ("cos2_u", "cos2_v", "mse_u", "mse_v"))
        n = cu.shape[0]
        sem = 1.0 / np.sqrt(n) if n > 1 else 0.0
        pred = predictions[method]
        for t in range(cu.shape[1]):
            rows.append({
                "method": method,
                "t": t + 1,
                "mean_cos2_u": float(np.mean(cu[:, t])),
                "se_cos2_u": float(np.std(cu[:, t], ddof=1) * sem) if n > 1 else 0.0,
                "mean_cos2_v": float(np.mean(cv[:, t])),
                "se_cos2_v": float(np.std(cv[:, t], ddof=1) * sem) if n > 1 else 0.0,
                "pred_cos2_u": float(pred.cos2_u[t]),
                "pred_cos2_v": float(pred.cos2_v[t]),
                "mean_mse_u": float(np.mean(mu[:, t])),
                "mean_mse_v": float(np.mean(mv[:, t])),
            })
    return rows


def run_experiment(cfg: ExperimentConfig) -> AggregateReport:
    cfg.validate()
    # the workers key, else the CPU count, at most one per seed
    workers = min(cfg.workers or os.cpu_count() or 1, len(cfg.seeds))
    shrinkage = ShrinkageSet(build_spectrum(cfg), cfg.theta)
    predictions = se_predictions(cfg, shrinkage)
    simulated = [m for m in cfg.methods if m != "se-only"]
    per_seed, failures = {}, {}

    if "amp" in simulated and cfg.spectrum != "mp":
        logger.warning("running Gaussian AMP on non-Gaussian noise")
    if simulated:
        run = functools.partial(_seed_outcome, cfg, shrinkage=shrinkage,
                                predictions=predictions)
        if workers > 1:
            # imported here: concurrent.futures.process costs every run ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = dict(zip(cfg.seeds, pool.map(run, cfg.seeds)))
        else:
            outcomes = {seed: run(seed) for seed in cfg.seeds}
        failures = {s: out for s, out in outcomes.items() if isinstance(out, str)}
        per_seed = {s: out for s, out in outcomes.items() if s not in failures}
        if failures:
            logger.warning("%d/%d seeds failed: %s", len(failures),
                           len(cfg.seeds), failures)
        if len(failures) > MAX_FAILURE_FRACTION * len(cfg.seeds):
            raise HarnessError(
                f"{len(failures)}/{len(cfg.seeds)} seeds failed: {failures}")

    rows = _aggregate(per_seed, predictions, cfg) if per_seed else []
    from . import __version__  # the package imports this module first
    meta = {
        "config": {**vars(cfg), "seeds": list(cfg.seeds), "methods": list(cfg.methods)},
        "n_seeds_requested": len(cfg.seeds),
        "n_seeds_used": len(per_seed),
        "failures": failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "versions": {"rectoamp": __version__, "numpy": np.__version__},
        "schedules": {m: {k: getattr(tr, k) for k in SCHEDULE_FIELDS[m]}
                      for m, tr in predictions.items() if m in SCHEDULE_FIELDS},
    }
    return AggregateReport(rows=rows, metadata=meta)


def emit_csv(report: AggregateReport, path) -> None:
    """Deterministic CSV (timestamp lives in the metadata JSON, not here)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for row in report.rows:
                writer.writerow(row)
    except OSError as exc:
        raise HarnessError(f"cannot write CSV to {path}: {exc}") from exc


def write_report(report: AggregateReport, out_prefix: str) -> tuple:
    """Write ``PREFIX.csv`` and ``PREFIX.meta.json``; the directory must exist."""
    csv_path, meta_path = out_prefix + ".csv", out_prefix + ".meta.json"
    emit_csv(report, csv_path)
    try:
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(report.metadata, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        raise HarnessError(f"cannot write metadata to {meta_path}: {exc}") from exc
    return csv_path, meta_path
