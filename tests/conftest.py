"""Shared fixtures: analytic objects and cached Monte-Carlo ensembles, and
the tier-1 ``hypothesis`` profile.

``tier1``, loaded here, draws each property test's examples from a seed
derived from the test itself and keeps no example database, so a tree gets
the same verdict on every run and machine.  ``--hypothesis-profile=default``
restores hypothesis's own profile, which draws fresh examples and replays
the failures kept in ``.hypothesis/``; a sweep with ten ``--hypothesis-seed``
values gives back the search at ten times each test's ``max_examples``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rectoamp.baselines import gaussian_amp_run, pca_estimate
from rectoamp.model import SvdCache, make_instance, thin_svd
from rectoamp.oamp import IterationTrace, optimal_oamp_run
from rectoamp.scalar_channel import ScalarChannel, dmmse
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet
from rectoamp.state_evolution import amp_se_trajectory, optimal_se_run

from empirical_measures import signal_moments

THETA = 2.0
DELTA = 0.5
W0 = 0.04
M_DESK, N_DESK = 1000, 2000
N_SEEDS = 20
T_DESK = 10

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cold_start_modules():
    """The top-level packages of the ``test`` extra that a fresh interpreter
    holds after importing the package, its CLI and its harness and building
    ``MarchenkoPastur(0.5)``.  One interpreter serves every import guard."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    code = ("import sys, rectoamp, rectoamp.cli, rectoamp.harness\n"
            "rectoamp.MarchenkoPastur(0.5)\n"
            "print(*sorted({m.split('.')[0] for m in sys.modules}\n"
            "              & {'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.fixture(scope="session")
def mp05():
    return MarchenkoPastur(DELTA)


@pytest.fixture(scope="session")
def beta_spectrum():
    return ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)


@pytest.fixture(scope="session")
def shrink_mp2(mp05):
    return ShrinkageSet(mp05, THETA)


@pytest.fixture(scope="session")
def shrink_beta2(beta_spectrum):
    return ShrinkageSet(beta_spectrum, THETA)


@pytest.fixture(scope="session")
def channels():
    return ScalarChannel("rademacher", W0), ScalarChannel("rademacher", W0)


def dense_channel_mean(ch, w, f, xstars=(1.0, -1.0)):
    """E[f(X*, Z, X, C)] for the Rademacher channel ``ch`` at strength w, by
    a 2001 x 2001 trapezoid rule over (Z, Z') on [-12, 12]^2 for each X* in
    ``xstars``, averaged over them.  f gets X* and Z, X as arrays over Z and
    one C = sqrt(w0) X* + sqrt(1 - w0) Z' at a time."""
    z = np.linspace(-12.0, 12.0, 2001)
    pdf = np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi)
    total = 0.0
    for xs in xstars:
        x = np.sqrt(w) * xs + np.sqrt(1 - w) * z
        c = np.sqrt(ch.w0) * xs + np.sqrt(1 - ch.w0) * z
        rows = [np.trapezoid(f(xs, z, x, cj) * pdf, z) for cj in c]
        total += np.trapezoid(np.array(rows) * pdf, z)
    return total / len(xstars)


def dense_dmmse_divergence(ch, w):
    """E[phi_bar'] = E[Z dmmse(X, C)] / sqrt(1 - w) by ``dense_channel_mean``
    given X* = 1: dmmse is odd in (X, C), so the X* = -1 half is its mirror
    image."""
    m = ch.mmse(w)
    return dense_channel_mean(
        ch, w, lambda xs, z, x, c: z * dmmse(ch.posterior_mean(x, c, w), x, w, m),
        xstars=(1.0,)) / np.sqrt(1 - w)


class RecordingChannel(ScalarChannel):
    """A channel that keeps a copy of each x that ``posterior_mean`` is
    given.  An OAMP run forms one posterior mean per iterate, so on a run's
    own channel ``inputs[t]`` is the raw iterate u_t (or v_t), and
    ``inputs[0]`` the zero start."""

    def __init__(self, prior_kind, w0):
        super().__init__(prior_kind, w0)
        self.inputs = []

    def posterior_mean(self, x, c, w):
        self.inputs.append(np.array(x, dtype=float))
        return super().posterior_mean(x, c, w)


# the keys under which an ensemble seed holds ``signal_moments``
MOMENT_KEYS = ("mom_nu1", "mom_nu2", "nu2_zero_mass")


def draw(spectrum, theta, M, N, seed):
    """The ensembles' instance: Rademacher signals with side information at
    W0 on both sides."""
    side = ScalarChannel("rademacher", W0)
    return make_instance(side, side, spectrum, M, N, theta, seed)


def run_seed(spectrum, theta, M, N, seed, channels, schedules,
             residual_steps=(), with_amp=False):
    """One seed's worth of everything the acceptance suite consumes; the
    runs read their strengths from ``schedules`` (see ``schedules_for``).
    OAMP runs on recording copies of ``channels`` (AMP keeps the originals),
    so that the raw u-iterates of ``residual_steps`` can go to ``residuals``."""
    inst = draw(spectrum, theta, M, N, seed)
    svd = thin_svd(inst.Y)
    u_min = svd.U[:, -1]
    v_min = inst.Y.T @ u_min
    pca = IterationTrace()
    pca.record(*pca_estimate(inst, svd), inst)
    out = {
        "eigenvalues": svd.eigenvalues,
        # the bottom eigenpair, for the outlier below the support
        "bottom_eig": float(svd.eigenvalues[-1]),
        "bottom_u": float(u_min @ inst.u_star) ** 2 / M,
        "bottom_v": float(v_min @ inst.v_star / np.linalg.norm(v_min)) ** 2 / N,
        "pca": (pca.cos2_u[0], pca.cos2_v[0]),
        **dict(zip(MOMENT_KEYS, signal_moments(inst))),
    }
    rec_u, rec_v = (RecordingChannel(ch.prior, ch.w0) for ch in channels)
    out["oamp"] = optimal_oamp_run(inst, svd, rec_u, rec_v, schedules["oamp"])
    if residual_steps:
        out["residuals"] = {
            t: (rec_u.inputs[t], inst.u_star) for t in residual_steps}
    if with_amp:
        out["amp"] = gaussian_amp_run(inst, channels[0], channels[1],
                                      schedules["amp"])
    return out


def schedules_for(shrinkage, channels):
    """The OAMP and AMP strength schedules of one (spectrum, theta) pair."""
    return {"oamp": optimal_se_run(shrinkage, *channels, T_DESK),
            "amp": amp_se_trajectory(shrinkage.theta, shrinkage.delta,
                                     *channels, T_DESK)}


@pytest.fixture(scope="session")
def ens_fig1(mp05, shrink_mp2, channels):
    """Gaussian noise, theta=2: OAMP + AMP, iterates kept at t in {1, 3};
    also the induced-measure moments of (mp, 2.0) and seed 0's eigenvalues."""
    schedules = schedules_for(shrink_mp2, channels)
    return [run_seed(mp05, THETA, M_DESK, N_DESK, seed, channels, schedules,
                     residual_steps=(1, 3), with_amp=True)
            for seed in range(N_SEEDS)]


@pytest.fixture(scope="session")
def ens_beta2(beta_spectrum, shrink_beta2, channels):
    """RI Beta noise, theta=2: OAMP + PCA + signal moments, and the bottom
    eigenpair."""
    schedules = schedules_for(shrink_beta2, channels)
    return [run_seed(beta_spectrum, THETA, M_DESK, N_DESK, seed, channels,
                     schedules)
            for seed in range(N_SEEDS)]


@pytest.fixture(scope="session")
def ens_measures_only(mp05, beta_spectrum):
    """``signal_moments`` of each seed's instance for the theta = 1 cases of
    the induced-measure moment checks, keyed as in ``run_seed``; the
    (mp, 2.0) case is in ens_fig1 and the (beta, 2.0) case in ens_beta2.
    The instances are drawn and never factorized."""
    return {key: [dict(zip(MOMENT_KEYS, signal_moments(
                      draw(spectrum, 1.0, M_DESK, N_DESK, seed))))
                  for seed in range(N_SEEDS)]
            for key, spectrum in (("mp1", mp05), ("beta1", beta_spectrum))}


def top_eigenpair(Y):
    """The top eigenpair (lambda, u) of Y Y^T by power iteration from a
    fixed start, with lambda the Rayleigh quotient of the unit vector u,
    stopped once |Y Y^T u - lambda u| <= 1e-10 lambda.  An outlier well
    above the bulk takes a few dozen products with Y and Y^T, and no
    factorization."""
    u = np.full(Y.shape[0], 1.0 / np.sqrt(Y.shape[0]))
    for _ in range(500):
        x = Y @ (Y.T @ u)
        lam = float(u @ x)
        if np.linalg.norm(x - lam * u) <= 1e-10 * lam:
            return lam, u
        u = x / np.linalg.norm(x)
    raise RuntimeError("power iteration: no top eigenpair in 500 iterations")


@pytest.fixture(scope="session")
def ens_outlier(mp05):
    """Larger instances for the outlier location / PCA overlap check: each
    seed's top eigenvalue and PCA overlaps, from ``top_eigenpair`` (PCA
    reads only the top eigenvector and Y)."""
    out = []
    for seed in range(10):
        inst = draw(mp05, THETA, 2000, 4000, seed)
        lam, u = top_eigenpair(inst.Y)
        pca = IterationTrace()
        pca.record(*pca_estimate(inst, SvdCache(np.array([lam]), u[:, None], inst.Y)),
                   inst)
        out.append({"top_eig": lam, "pca": (pca.cos2_u[0], pca.cos2_v[0])})
    return out
