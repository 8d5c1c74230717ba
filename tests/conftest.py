"""Shared fixtures: analytic objects and cached Monte-Carlo ensembles."""

import numpy as np
import pytest

from rectoamp.baselines import gaussian_amp_run, pca_estimate
from rectoamp.model import make_instance, thin_svd
from rectoamp.oamp import IterationTrace, optimal_oamp_run
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet
from rectoamp.state_evolution import amp_se_trajectory, optimal_se_run

from empirical_measures import empirical_signal_measures, measure_moments

THETA = 2.0
DELTA = 0.5
W0 = 0.04
M_DESK, N_DESK = 1000, 2000
N_SEEDS = 20
T_DESK = 10


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
    return dense_channel_mean(ch, w, lambda xs, z, x, c: z * ch.dmmse(x, c, w),
                              xstars=(1.0,)) / np.sqrt(1 - w)


def run_seed(spectrum, theta, M, N, seed, shrinkage=None, channels=None,
             schedules=None, keep_iterates=(), with_amp=False, with_oamp=True):
    """One seed's worth of everything the acceptance suite consumes; the
    runs read their strengths from ``schedules`` (see ``schedules_for``)."""
    side = ScalarChannel("rademacher", W0)
    inst = make_instance(side, side, spectrum, M, N, theta, seed)
    svd = thin_svd(inst.Y)
    meas = empirical_signal_measures(inst, svd)
    u_min = svd.U[:, -1]
    v_min = inst.Y.T @ u_min
    pca = IterationTrace()
    pca.record(*pca_estimate(inst, svd), inst)
    out = {
        "top_eig": float(svd.eigenvalues[0]),
        # the bottom eigenpair, for the outlier below the support
        "bottom_eig": float(svd.eigenvalues[-1]),
        "bottom_u": float(u_min @ inst.u_star) ** 2 / M,
        "bottom_v": float(v_min @ inst.v_star / np.linalg.norm(v_min)) ** 2 / N,
        "mom_nu1": measure_moments(*meas.nu_M1),
        "mom_nu2": measure_moments(*meas.nu_N2),
        "nu2_zero_mass": float(meas.nu_N2[1][-1]),
        "pca": (pca.cos2_u[0], pca.cos2_v[0]),
    }
    if with_oamp and shrinkage is not None:
        tr = optimal_oamp_run(inst, svd, shrinkage, channels[0], channels[1],
                              schedules["oamp"], keep_iterates=keep_iterates)
        out["oamp"] = tr
        if keep_iterates:
            out["residuals"] = {
                t: (tr.iterates[t][0], inst.u_star) for t in keep_iterates}
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
    """Gaussian noise, theta=2: OAMP + AMP, iterates kept at t in {1, 3}."""
    schedules = schedules_for(shrink_mp2, channels)
    return [run_seed(mp05, THETA, M_DESK, N_DESK, seed,
                     shrink_mp2, channels, schedules, keep_iterates=(1, 3),
                     with_amp=True)
            for seed in range(N_SEEDS)]


@pytest.fixture(scope="session")
def ens_beta2(beta_spectrum, shrink_beta2, channels):
    """RI Beta noise, theta=2: OAMP + PCA + empirical measures."""
    schedules = schedules_for(shrink_beta2, channels)
    return [run_seed(beta_spectrum, THETA, M_DESK, N_DESK, seed, shrink_beta2,
                     channels, schedules)
            for seed in range(N_SEEDS)]


@pytest.fixture(scope="session")
def ens_measures_only(mp05, beta_spectrum):
    """Empirical signal measures for the (spectrum, theta) pairs of the
    induced-measure moment checks; the (beta, 2.0) case is in ens_beta2."""
    out = {}
    for key, spectrum, theta in (("mp1", mp05, 1.0), ("mp2", mp05, 2.0),
                                 ("beta1", beta_spectrum, 1.0)):
        out[key] = [run_seed(spectrum, theta, M_DESK, N_DESK, seed,
                             with_oamp=False)
                    for seed in range(N_SEEDS)]
    return out


@pytest.fixture(scope="session")
def ens_outlier(mp05):
    """Larger instances for the outlier location / PCA overlap check."""
    return [run_seed(mp05, THETA, 2000, 4000, seed, with_oamp=False)
            for seed in range(10)]
