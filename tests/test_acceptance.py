"""Acceptance gate: end-to-end statistical checks of the full pipeline.

Each test prints a single [PASS]/[FAIL] summary line (bypassing capture) and
then asserts, so the gate status is readable straight off the pytest output.
"""

import numpy as np
import pytest
from scipy import integrate, stats

from rectoamp.spectra import ShrinkageSet
from rectoamp.state_evolution import gaussian_fixed_point, optimal_se_run

from conftest import (DELTA, M_DESK, N_SEEDS, T_DESK, THETA,
                      dense_dmmse_divergence)

MP_OUTLIER = 5.625          # root of 1 = theta^2 C(lambda), MP(1/2), theta = 2
MP_NU1_MASS = 31.0 / 36.0
MP_NU2_MASS = 0.775


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _mean_curves(ensemble, method):
    cu = np.array([seed[method].cos2_u for seed in ensemble])
    cv = np.array([seed[method].cos2_v for seed in ensemble])
    return cu.mean(axis=0), cv.mean(axis=0)


@pytest.fixture(scope="session")
def se_mp(shrink_mp2, channels):
    return optimal_se_run(shrink_mp2, *channels, T_DESK)


@pytest.fixture(scope="session")
def se_beta(shrink_beta2, channels):
    return optimal_se_run(shrink_beta2, *channels, T_DESK)


def test_criterion_1_oamp_tracks_se_gaussian(ens_fig1, se_mp, capsys):
    """Mean OAMP overlaps follow the scalar state evolution at every t."""
    mean_u, mean_v = _mean_curves(ens_fig1, "oamp")
    dev = max(np.max(np.abs(mean_u - se_mp.cos2_u)),
              np.max(np.abs(mean_v - se_mp.cos2_v)))
    ok = dev <= 0.02
    _report(capsys, "criterion 1 (OAMP matches SE, Gaussian noise)", ok,
            f"max |mean cos2 - SE| = {dev:.4f} over t = 1..{T_DESK} (tol 0.02)")
    assert ok


def test_criterion_2_gaussian_fixed_point(ens_fig1, se_mp, shrink_mp2,
                                           channels, capsys):
    """The OAMP state evolution under MP noise converges to the fixed point
    of the Gaussian-noise system, and simulated Gaussian AMP reaches it."""
    tr = optimal_se_run(shrink_mp2, *channels, 200)
    w1, w2, m_u, m_v = gaussian_fixed_point(THETA, DELTA, *channels)
    dev_fp = max(abs(tr.w1[-1] - w1), abs(tr.w2[-1] - w2),
                 abs(tr.mmse_u[-1] - m_u), abs(tr.mmse_v[-1] - m_v))

    amp_u, amp_v = _mean_curves(ens_fig1, "amp")
    dev_sim = max(abs(amp_u[-1] - (1 - m_u)), abs(amp_v[-1] - (1 - m_v)),
                  abs(amp_u[-1] - tr.cos2_u[-1]), abs(amp_v[-1] - tr.cos2_v[-1]))
    ok = dev_fp <= 1e-6 and dev_sim <= 0.02
    _report(capsys, "criterion 2 (SE limit = Gaussian fixed point)", ok,
            f"fixed-point dev = {dev_fp:.2e} (tol 1e-6), "
            f"AMP sim dev = {dev_sim:.4f} (tol 0.02)")
    assert ok


def test_criterion_3_oamp_beats_pca_beta(ens_beta2, se_beta, capsys):
    """Under Beta-spectrum RI noise the OAMP estimate beats PCA by a margin
    and still matches its own state evolution."""
    oamp_u, oamp_v = _mean_curves(ens_beta2, "oamp")
    pca_u = np.mean([seed["pca"][0] for seed in ens_beta2])
    pca_v = np.mean([seed["pca"][1] for seed in ens_beta2])
    margin = min(oamp_u[-1] - pca_u, oamp_v[-1] - pca_v)
    dev_se = max(abs(oamp_u[-1] - se_beta.cos2_u[-1]),
                 abs(oamp_v[-1] - se_beta.cos2_v[-1]))
    ok = margin >= 0.05 and dev_se <= 0.02
    _report(capsys, "criterion 3 (OAMP > PCA under Beta RI noise)", ok,
            f"min margin over PCA = {margin:.4f} (need >= 0.05), "
            f"dev from own SE = {dev_se:.4f} (tol 0.02)")
    assert ok


def test_criterion_4_induced_measure_moments(ens_measures_only, ens_fig1, ens_beta2,
                                             mp05, beta_spectrum, capsys):
    """Moments 0-3 of the empirical signal-weighted spectral measures agree
    with the analytic induced measures within Monte-Carlo error."""
    cases = {
        "mp theta=1": (mp05, 1.0, ens_measures_only["mp1"]),
        "mp theta=2": (mp05, 2.0, ens_fig1),
        "beta theta=1": (beta_spectrum, 1.0, ens_measures_only["beta1"]),
        "beta theta=2": (beta_spectrum, 2.0, ens_beta2),
    }
    worst, worst_label = 0.0, ""
    ok = True
    for label, (spectrum, theta, ensemble) in cases.items():
        meas = ShrinkageSet(spectrum, theta).build_induced_measures()
        n = len(ensemble)
        for tag, emp_key, nu in (("nu1", "mom_nu1", meas.nu1),
                                 ("nu2", "mom_nu2", meas.nu2)):
            emp = np.array([seed[emp_key] for seed in ensemble])
            target = np.array([nu.integrate(lambda l, k=k: l ** k)
                               for k in range(4)])
            sem = emp.std(axis=0, ddof=1) / np.sqrt(n)
            z = np.abs(emp.mean(axis=0) - target) / (3.0 * sem + 1e-9)
            if z.max() > worst:
                worst, worst_label = z.max(), f"{label} {tag}"
            ok &= z.max() <= 1.0
        zero = np.array([seed["nu2_zero_mass"] for seed in ensemble])
        sem = zero.std(ddof=1) / np.sqrt(n)
        z0 = abs(zero.mean() - dict(meas.nu2.atoms)[0.0]) / (3.0 * sem + 1e-9)
        if z0 > worst:
            worst, worst_label = z0, f"{label} nu2({{0}})"
        ok &= z0 <= 1.0
    _report(capsys, "criterion 4 (empirical measure moments)", ok,
            f"worst deviation = {worst:.2f} x (3 MC SE) at {worst_label} "
            "(need <= 1)")
    assert ok


def test_criterion_5_outlier_and_pca_overlap(ens_outlier, capsys):
    """The top eigenvalue sits at the predicted outlier location and the PCA
    overlaps match the atom masses of the induced measures."""
    # single-instance outliers fluctuate at the 1-2% level for M = 2000, so
    # the location check applies to the ensemble mean
    top = np.array([seed["top_eig"] for seed in ens_outlier])
    rel = abs(top.mean() - MP_OUTLIER) / MP_OUTLIER
    pca_u = np.mean([seed["pca"][0] for seed in ens_outlier])
    pca_v = np.mean([seed["pca"][1] for seed in ens_outlier])
    dev = max(abs(pca_u - MP_NU1_MASS), abs(pca_v - MP_NU2_MASS))
    ok = rel <= 0.01 and dev <= 0.02
    _report(capsys, "criterion 5 (outlier location and PCA overlap)", ok,
            f"mean relative outlier dev = {rel:.4f} (tol 0.01), "
            f"overlap dev from atom masses = {dev:.4f} (tol 0.02)")
    assert ok


def test_criterion_6_denoiser_structure(shrink_mp2, shrink_beta2, channels,
                                        se_mp, se_beta, ens_fig1, capsys):
    """Trace-freeness of the matrix denoisers (analytic and on a simulated
    instance), divergence-freeness of the scalar denoisers, and the boundary
    consistency of the shrinkage denominator."""
    details, ok = [], True

    # analytic trace-freeness at the fixed-point output SNRs, both spectra
    worst_mean = 0.0
    for sh, se in ((shrink_mp2, se_mp), (shrink_beta2, se_beta)):
        den = se.denoisers[-1]
        mu, d = sh.spectrum.measure(), sh.delta
        values = den.evaluate
        mean_f = mu.integrate(lambda l: values(l)[0])
        mean_g = (d * mu.integrate(lambda l: values(l)[2])
                  + (1 - d) * den.g_zero())
        worst_mean = max(worst_mean, abs(mean_f), abs(mean_g))
    ok &= worst_mean <= 1e-10
    details.append(f"|<F>|,|<G>| <= {worst_mean:.2e} (tol 1e-10)")

    # empirical trace on one simulated instance: ens_fig1's seed 0
    den = se_mp.denoisers[-1]
    lam = ens_fig1[0]["eigenvalues"]
    emp = abs(np.sum(den.evaluate(lam)[0])) / M_DESK
    ok &= emp <= 0.01
    details.append(f"|tr F|/M = {emp:.4f} (tol 0.01)")

    # Stein identity: the divergence-free denoiser has E[phi_bar'] = 0
    worst_stein = max(abs(dense_dmmse_divergence(channels[0], w))
                      for w in (0.1, 0.3, 0.5, 0.7, 0.9))
    ok &= worst_stein <= 1e-6
    details.append(f"max |E[phi_bar']| = {worst_stein:.2e} (tol 1e-6)")

    # boundary-value expansion of |1 - theta^2 C|^2 against an independent
    # oracle: S(lam - i0) = PV + i pi rho via adaptive Cauchy-weight quadrature
    worst_plemelj = 0.0
    for sh in (shrink_mp2, shrink_beta2):
        spec = sh.spectrum
        lo, hi = spec.support
        dens = lambda l: float(spec.density(np.asarray(l, dtype=float)))
        for lam in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 25):
            pv = -integrate.quad(dens, lo, hi, weight="cauchy", wvar=lam,
                                 limit=400)[0]
            s = complex(pv, np.pi * dens(lam))
            c = lam * s * (spec.delta * s + (1 - spec.delta) / lam)
            oracle = abs(1 - THETA ** 2 * c) ** 2
            rel = abs(sh.numerators(lam)[3][0] - oracle) / abs(oracle)
            worst_plemelj = max(worst_plemelj, rel)
    ok &= worst_plemelj <= 1e-3
    details.append(f"boundary-value rel dev = {worst_plemelj:.2e} (tol 1e-3)")

    _report(capsys, "criterion 6 (denoiser structure)", ok, "; ".join(details))
    assert ok


def test_criterion_7_iterate_gaussianity(ens_fig1, se_mp, capsys):
    """Pooled standardized iterate residuals pass a Kolmogorov-Smirnov test
    against N(0, 1) at the 1% level."""
    details, ok = [], True
    for t in (1, 3):
        w1 = se_mp.w1[t - 1]
        pooled = np.concatenate([
            (seed["residuals"][t][0] - np.sqrt(w1) * seed["residuals"][t][1])
            / np.sqrt(1 - w1) for seed in ens_fig1])
        stat, pval = stats.kstest(pooled, "norm")
        ok &= pval > 0.01
        details.append(f"t={t}: KS D = {stat:.5f}, p = {pval:.3f}")
    _report(capsys, "criterion 7 (iterate residual Gaussianity)", ok,
            "; ".join(details) + " (need p > 0.01)")
    assert ok
