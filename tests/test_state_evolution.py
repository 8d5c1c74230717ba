"""State-evolution recursions and the Gaussian-noise fixed point."""

import numpy as np
import pytest

from rectoamp.oamp import DenoiserSet
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet
from rectoamp.state_evolution import (StateEvolutionError, amp_se_trajectory,
                                      gaussian_fixed_point, optimal_se_run,
                                      se_step_general)


class TestGeneralStep:
    def test_zero_denoisers_null_channel(self, mp05, shrink_mp2):
        meas = shrink_mp2.build_induced_measures()
        zero = lambda l: 0.0 * np.asarray(l)
        mu_u, su2, mu_v, sv2 = se_step_general(
            meas, mp05, (0.5, 0.1), (0.5, 0.1), zero, zero, zero, zero)
        assert mu_u == mu_v == 0.0
        assert su2 == sv2 == 0.0

    def test_theta_zero_variance_only(self, mp05):
        # with no spike, only the residual-variance terms survive
        sh = ShrinkageSet(mp05, 0.0)
        meas = sh.build_induced_measures()
        F = lambda l: np.asarray(l) - 1.0       # trace-free under MP
        zero = lambda l: 0.0 * np.asarray(l)
        sf2 = 0.3
        mu_u, su2, _, _ = se_step_general(
            meas, mp05, (0.0, sf2), (0.0, 0.2), F, zero, zero, zero)
        mu = mp05.measure()
        assert mu_u == pytest.approx(0.0, abs=1e-12)
        assert su2 == pytest.approx(
            sf2 * mu.integrate(lambda l: F(l) ** 2), abs=1e-10)

    @pytest.mark.parametrize("t", [1, 3, 6])
    def test_channel_exactness(self, mp05, shrink_mp2, channels, t):
        # the optimal denoisers make the general recursion collapse to the
        # scalar one: mu_u = w1 and mu_u^2 + sigma_u^2 = w1 (and same for v)
        ch_u, ch_v = channels
        se = optimal_se_run(shrink_mp2, ch_u, ch_v, max(t, 2))
        w1p = se.w1[t - 2] if t >= 2 else 0.0
        w2p = se.w2[t - 2] if t >= 2 else 0.0
        a, sf2, rho1 = ch_u.dmmse_stats(w1p)
        b, sg2, rho2 = ch_v.dmmse_stats(w2p)
        den = DenoiserSet(shrink_mp2, rho1, rho2)
        meas = shrink_mp2.build_induced_measures()
        mu_u, su2, mu_v, sv2 = se_step_general(
            meas, mp05, (a, sf2), (b, sg2),
            lambda l: den.evaluate(l)[0], lambda l: den.evaluate(l)[1],
            lambda l: den.evaluate(l)[2], lambda l: den.evaluate(l)[3])
        w1, w2 = den.next_strengths()
        assert mu_u == pytest.approx(w1, abs=1e-8)
        assert mu_u ** 2 + su2 == pytest.approx(w1, abs=1e-8)
        assert mu_v == pytest.approx(w2, abs=1e-8)
        assert mu_v ** 2 + sv2 == pytest.approx(w2, abs=1e-8)


def general_se_gaps(shrinkage, ch_u, ch_v, n_iter):
    """Per step t = 1..n_iter, the largest of |mu_u - w1|, |mu_u^2 +
    sigma_u^2 - w1| and the same on v, where (mu, sigma^2) come from the
    general state evolution driven by ``DenoiserSet`` along the schedule of
    ``optimal_se_run`` and w are that schedule's strengths."""
    se = optimal_se_run(shrinkage, ch_u, ch_v, n_iter)
    meas = shrinkage.build_induced_measures()
    cache = {}

    def numerators(lam):
        # the numerators do not depend on rho: evaluate each grid once
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        key = lam.tobytes()
        if key not in cache:
            cache[key] = shrinkage.numerators(lam)
        return cache[key]

    gaps = []
    w1p = w2p = 0.0
    for t in range(n_iter):
        a, sf2, rho1 = ch_u.dmmse_stats(w1p)
        b, sg2, rho2 = ch_v.dmmse_stats(w2p)
        # past convergence the schedule repeats the rho of its last step
        assert rho1 == pytest.approx(se.rho1[t], rel=1e-9)
        assert rho2 == pytest.approx(se.rho2[t], rel=1e-9)
        den = DenoiserSet(shrinkage, rho1, rho2)
        F, Ftil, G, Gtil = (lambda l, i=i: den.evaluate(l, numerators(l))[i]
                            for i in range(4))
        mu_u, su2, mu_v, sv2 = se_step_general(
            meas, shrinkage.spectrum, (a, sf2), (b, sg2), F, Ftil, G, Gtil)
        w1p, w2p = se.w1[t], se.w2[t]
        gaps.append(max(abs(mu_u - w1p), abs(mu_u ** 2 + su2 - w1p),
                        abs(mu_v - w2p), abs(mu_v ** 2 + sv2 - w2p)))
    return gaps


class TestGeneralSeTrajectory:
    # the paper's claim: with the optimal denoisers the general state
    # evolution collapses to the scalar schedule.  MP at delta = 0.5 has
    # closed-form transforms and a regular quadrature; the other tolerances
    # cover the quadrature's defects at singular edges and in the on-node
    # Hilbert transform (gaps 8.9e-12, 1.4e-5, 3.0e-5, 9.2e-6, 3.4e-5)
    @pytest.mark.parametrize("make,tol", [
        (lambda: MarchenkoPastur(0.5), 1e-10),
        (lambda: MarchenkoPastur(1.0), 1e-4),
        (lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5), 1e-4),
        (lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 1.0), 1e-4),
        (lambda: ShiftedBeta(0.5, 2.0, 1.0, 3.0, 0.5), 1e-4)],
        ids=["mp_delta05", "mp_delta1", "beta_delta05", "beta_delta1",
             "beta_a05_b2"])
    def test_collapses_to_schedule(self, channels, make, tol):
        gaps = general_se_gaps(ShrinkageSet(make(), 2.0), *channels, 8)
        assert len(gaps) == 8
        assert max(gaps) <= tol


class TestOptimalRecursion:
    def test_monotone_and_converged(self, shrink_mp2, channels):
        tr = optimal_se_run(shrink_mp2, *channels, 30)
        assert np.all(np.diff(tr.w1) >= -1e-12)
        assert np.all(np.diff(tr.w2) >= -1e-12)
        assert tr.converged_at is not None
        assert len(tr.w1) == 30

    def test_idempotent_at_fixed_point(self, shrink_mp2, channels):
        ch_u, ch_v = channels
        tr = optimal_se_run(shrink_mp2, ch_u, ch_v, 100)
        w1, w2 = tr.w1[-1], tr.w2[-1]
        rho1 = 1 / ch_u.mmse(w1) - 1 / (1 - w1)
        rho2 = 1 / ch_v.mmse(w2) - 1 / (1 - w2)
        den = DenoiserSet(shrink_mp2, rho1, rho2)
        w1n, w2n = den.next_strengths()
        assert abs(w1n - w1) <= 1e-10 and abs(w2n - w2) <= 1e-10

    def test_near_perfect_side_info(self, shrink_mp2):
        ch = ScalarChannel("rademacher", 1 - 1e-9)
        tr = optimal_se_run(shrink_mp2, ch, ch, 3)
        assert all(m <= 1e-6 for m in tr.mmse_u)

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_theta_zero_strengths_are_zero(self, delta):
        # round-off around a collapsed strength (5.6e-16 at delta = 1) is
        # clamped to exactly 0, the value the OAMP run tests for
        ch = ScalarChannel("rademacher", 0.3)
        tr = optimal_se_run(ShrinkageSet(MarchenkoPastur(delta), 0.0), ch, ch, 3)
        assert tr.w1 == tr.w2 == [0.0, 0.0, 0.0]
        assert tr.cos2_u == [1.0 - ch.mmse(0.0)] * 3

    def test_rho_positive(self, shrink_mp2, channels):
        tr = optimal_se_run(shrink_mp2, *channels, 10)
        assert all(r > 0 for r in tr.rho1 + tr.rho2)


class TestGaussianFixedPoint:
    def test_matches_optimal_recursion(self, shrink_mp2, channels):
        tr = optimal_se_run(shrink_mp2, *channels, 200)
        w1, w2, m_u, m_v = gaussian_fixed_point(2.0, 0.5, *channels)
        assert abs(tr.w1[-1] - w1) <= 1e-6
        assert abs(tr.w2[-1] - w2) <= 1e-6
        assert abs(tr.mmse_u[-1] - m_u) <= 1e-6
        assert abs(tr.mmse_v[-1] - m_v) <= 1e-6

    def test_solves_the_system(self, channels):
        ch_u, ch_v = channels
        theta, delta = 2.0, 0.5
        w1, w2, m_u, m_v = gaussian_fixed_point(theta, delta, ch_u, ch_v)
        assert m_u == pytest.approx(1 - w2 / (1 - w2) / theta ** 2, abs=1e-9)
        assert m_v == pytest.approx(1 - delta * w1 / (1 - w1) / theta ** 2,
                                    abs=1e-9)

    def test_zero_snr_floor(self, channels):
        ch = ScalarChannel("rademacher", 0.04)
        w1, w2, m_u, m_v = gaussian_fixed_point(1e-6, 0.5, ch, ch)
        # no signal flows: strengths collapse and mmse sits at the prior level
        assert w1 <= 1e-9 and w2 <= 1e-9
        assert m_u == pytest.approx(ch.mmse(0.0), abs=1e-6)

    def test_large_snr(self):
        ch = ScalarChannel("rademacher", 0.04)
        _, _, m_u, m_v = gaussian_fixed_point(50.0, 0.5, ch, ch)
        assert m_u <= 1e-3 and m_v <= 1e-3

    def test_amp_schedule_reaches_it(self, channels):
        w1, w2, m_u, m_v = gaussian_fixed_point(2.0, 0.5, *channels)
        tr = amp_se_trajectory(2.0, 0.5, *channels, 200)
        assert abs(tr.w1[-1] - w1) <= 1e-9 and abs(tr.w2[-1] - w2) <= 1e-9
        assert tr.cos2_u[-1] == pytest.approx(1 - m_u, abs=1e-9)
        assert tr.rho1 == tr.rho2 == []

    def test_invalid_parameters(self, channels):
        with pytest.raises(StateEvolutionError):
            gaussian_fixed_point(2.0, 1.5, *channels)
