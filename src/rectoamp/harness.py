"""Experiment orchestration: config parsing, seeded parallel runs,
aggregation, and CSV/JSON emission of empirical-vs-predicted curves.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineError, gaussian_amp_run, pca_estimate
from .model import ModelError, PriorModel, make_instance, thin_svd
from .oamp import OampError, optimal_oamp_run
from .scalar_channel import ChannelError, ScalarChannel
from .spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet, SpectraError
from .state_evolution import (StateEvolutionError, amp_se_trajectory,
                              optimal_se_run)

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("oamp", "amp", "pca", "se-only")
CSV_FIELDS = ("method", "t", "mean_cos2_u", "se_cos2_u", "mean_cos2_v",
              "se_cos2_v", "pred_cos2_u", "pred_cos2_v", "mean_mse_u",
              "mean_mse_v")
MAX_FAILURE_FRACTION = 0.2
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
    spectrum: str = "mp"          # "mp" | "beta"
    noise: str = "gaussian"       # "gaussian" | "ri"
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
        if self.noise not in ("gaussian", "ri"):
            raise ConfigError(f"unknown noise model {self.noise!r}")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        if not 0.0 <= self.theta < np.inf:
            raise ConfigError(f"theta must be finite and nonnegative, got {self.theta}")
        if not (0.0 <= self.w0_u < 1.0 and 0.0 <= self.w0_v < 1.0):
            raise ConfigError(f"w0 must lie in [0, 1), got {self.w0_u}, {self.w0_v}")
        beta = (self.beta_a, self.beta_b, self.beta_lo, self.beta_hi)
        if not (0.0 < self.beta_a < np.inf and 0.0 < self.beta_b < np.inf
                and 0.0 <= self.beta_lo < self.beta_hi < np.inf):
            raise ConfigError("need finite beta_a, beta_b > 0 and 0 <= beta_lo < beta_hi, "
                              f"got (a, b, lo, hi) = {beta}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        return self


_INT_KEYS = {"M", "N", "iters", "workers"}
_FLOAT_KEYS = {"theta", "beta_a", "beta_b", "beta_lo", "beta_hi", "w0_u", "w0_v"}


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
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, str):
            if key in _INT_KEYS:
                val = int(val)
            elif key in _FLOAT_KEYS:
                val = float(val)
            elif key == "seeds":
                val = _parse_seeds(val)
            elif key == "methods":
                val = tuple(m.strip() for m in val.split(",") if m.strip())
        setattr(cfg, key, val)
    return cfg.validate()


def _parse_seeds(val: str) -> tuple:
    parts = [p.strip() for p in val.split(",") if p.strip()]
    if len(parts) == 1 and int(parts[0]) >= 0 and "," not in val:
        return tuple(range(int(parts[0])))
    return tuple(int(p) for p in parts)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


# -- assembly -------------------------------------------------------------------

def build_spectrum(cfg: ExperimentConfig):
    if cfg.spectrum == "mp":
        return MarchenkoPastur(cfg.delta)
    return ShiftedBeta(cfg.beta_a, cfg.beta_b, cfg.beta_lo, cfg.beta_hi, cfg.delta)


def build_channels(cfg: ExperimentConfig):
    return (ScalarChannel(cfg.prior_u, cfg.w0_u),
            ScalarChannel(cfg.prior_v, cfg.w0_v))


def se_predictions(cfg: ExperimentConfig,
                   shrinkage: ShrinkageSet) -> tuple[dict, dict]:
    """Predicted cos^2 curves per method (length-iters lists, or length 1
    for the one-shot PCA baseline), and the strength schedules they come
    from."""
    channel_u, channel_v = build_channels(cfg)
    schedules = {}
    if "oamp" in cfg.methods or "se-only" in cfg.methods:
        schedules["oamp"] = optimal_se_run(shrinkage, channel_u, channel_v, cfg.iters)
    if "amp" in cfg.methods:
        schedules["amp"] = amp_se_trajectory(cfg.theta, cfg.delta, channel_u,
                                             channel_v, cfg.iters)
    preds = {m: (tr.cos2_u, tr.cos2_v) for m, tr in schedules.items()}
    if "pca" in cfg.methods:
        # PCA takes the top eigenvector: the atom above the support, if any
        hi = shrinkage.spectrum.support[1]
        above = [a for a in shrinkage.find_spectral_atoms() if a.location > hi]
        preds["pca"] = (([above[0].nu1_mass], [above[0].nu2_mass]) if above
                        else ([0.0], [0.0]))
    return preds, schedules


def run_single_seed(cfg: ExperimentConfig, seed: int, shrinkage: ShrinkageSet,
                    schedules: dict) -> dict:
    """Run every simulated method on one instance with the run's shrinkage
    set, along the strength schedules of ``se_predictions``; returns curves."""
    channel_u, channel_v = build_channels(cfg)
    prior_u = PriorModel(cfg.prior_u, cfg.w0_u)
    prior_v = PriorModel(cfg.prior_v, cfg.w0_v)
    noise = "gaussian" if cfg.noise == "gaussian" else shrinkage.spectrum
    inst = make_instance(prior_u, prior_v, noise, cfg.M, cfg.N, cfg.theta, seed)
    svd = thin_svd(inst.Y)
    out = {}
    if "oamp" in cfg.methods:
        tr = optimal_oamp_run(inst, svd, shrinkage, channel_u, channel_v,
                              schedules["oamp"])
        out["oamp"] = (tr.cos2_u, tr.cos2_v, tr.mse_u, tr.mse_v)
    if "amp" in cfg.methods:
        tr = gaussian_amp_run(inst, channel_u, channel_v, schedules["amp"])
        out["amp"] = (tr.cos2_u, tr.cos2_v, tr.mse_u, tr.mse_v)
    if "pca" in cfg.methods:
        u_hat, v_hat, c2u, c2v = pca_estimate(inst, svd)
        out["pca"] = ([c2u], [c2v],
                      [float(np.mean((u_hat - inst.u_star) ** 2))],
                      [float(np.mean((v_hat - inst.v_star) ** 2))])
    return out


@dataclass
class AggregateReport:
    config: dict
    rows: list                    # dicts matching CSV_FIELDS, deterministic order
    predictions: dict
    n_seeds: int
    failures: dict = field(default_factory=dict)   # seed -> message
    metadata: dict = field(default_factory=dict)


def _aggregate(per_seed: dict, predictions: dict, cfg: ExperimentConfig) -> list:
    rows = []
    methods = [m for m in cfg.methods if m != "se-only"]
    for method in methods:
        curves = [per_seed[s][method] for s in sorted(per_seed)]
        cu = np.array([c[0] for c in curves])
        cv = np.array([c[1] for c in curves])
        mu = np.array([c[2] for c in curves])
        mv = np.array([c[3] for c in curves])
        n = cu.shape[0]
        sem = 1.0 / np.sqrt(n) if n > 1 else 0.0
        pred_u, pred_v = predictions.get(method, ([], []))
        for t in range(cu.shape[1]):
            rows.append({
                "method": method,
                "t": t + 1,
                "mean_cos2_u": float(np.mean(cu[:, t])),
                "se_cos2_u": float(np.std(cu[:, t], ddof=1) * sem) if n > 1 else 0.0,
                "mean_cos2_v": float(np.mean(cv[:, t])),
                "se_cos2_v": float(np.std(cv[:, t], ddof=1) * sem) if n > 1 else 0.0,
                "pred_cos2_u": float(pred_u[t]) if t < len(pred_u) else "",
                "pred_cos2_v": float(pred_v[t]) if t < len(pred_v) else "",
                "mean_mse_u": float(np.mean(mu[:, t])),
                "mean_mse_v": float(np.mean(mv[:, t])),
            })
    return rows


def _worker_count(cfg: ExperimentConfig) -> int:
    """The ``workers`` key, else the smaller of the seed count and the CPU
    count."""
    return cfg.workers or min(len(cfg.seeds), os.cpu_count() or 1)


def run_experiment(cfg: ExperimentConfig) -> AggregateReport:
    cfg.validate()
    workers = _worker_count(cfg)
    shrinkage = ShrinkageSet(build_spectrum(cfg), cfg.theta)
    predictions, schedules = se_predictions(cfg, shrinkage)
    simulated = [m for m in cfg.methods if m != "se-only"]
    per_seed, failures = {}, {}

    if "amp" in simulated and cfg.noise != "gaussian":
        logger.warning("running Gaussian AMP on non-Gaussian noise")
    if simulated:
        if workers > 1:
            # imported here: concurrent.futures.process costs every run ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {seed: pool.submit(run_single_seed, cfg, seed,
                                             shrinkage, schedules)
                           for seed in cfg.seeds}
                for seed, fut in futures.items():
                    try:
                        per_seed[seed] = fut.result()
                    except DOMAIN_ERRORS as exc:
                        failures[seed] = str(exc)
        else:
            for seed in cfg.seeds:
                try:
                    per_seed[seed] = run_single_seed(cfg, seed, shrinkage, schedules)
                except DOMAIN_ERRORS as exc:
                    failures[seed] = str(exc)
        if failures:
            logger.warning("%d/%d seeds failed: %s", len(failures),
                           len(cfg.seeds), failures)
        if len(failures) > MAX_FAILURE_FRACTION * len(cfg.seeds):
            raise HarnessError(
                f"{len(failures)}/{len(cfg.seeds)} seeds failed: {failures}")

    rows = _aggregate(per_seed, predictions, cfg) if per_seed else []
    meta = {
        "config": vars(cfg).copy(),
        "n_seeds_requested": len(cfg.seeds),
        "n_seeds_used": len(per_seed),
        "failures": failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    meta["config"]["seeds"] = list(cfg.seeds)
    meta["config"]["methods"] = list(cfg.methods)
    return AggregateReport(config=meta["config"], rows=rows,
                           predictions=predictions, n_seeds=len(per_seed),
                           failures=failures, metadata=meta)


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


def emit_metadata(report: AggregateReport, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.metadata, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        raise HarnessError(f"cannot write metadata to {path}: {exc}") from exc


def write_report(report: AggregateReport, out_prefix: str) -> tuple:
    out_dir = os.path.dirname(out_prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    csv_path = out_prefix + ".csv"
    meta_path = out_prefix + ".meta.json"
    emit_csv(report, csv_path)
    emit_metadata(report, meta_path)
    return csv_path, meta_path
