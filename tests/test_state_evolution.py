"""State-evolution recursions and the Gaussian-noise fixed point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def optimal_steps(shrinkage, ch_u, ch_v, n_iter):
    """Per step t = 1..n_iter of the schedule of ``optimal_se_run``: the
    stats (alpha, sigma_f^2) and (beta, sigma_g^2) of the scalar denoisers'
    outputs, the optimal matrix denoisers (F*, Ftil*, G*, Gtil*) of
    ``DenoiserSet`` as callables on the lambda axis, and the schedule's
    strengths (w1, w2) after the step."""
    se = optimal_se_run(shrinkage, ch_u, ch_v, n_iter)
    cache = {}

    def numerators(lam):
        # the numerators do not depend on rho: evaluate each grid once
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        key = lam.tobytes()
        if key not in cache:
            cache[key] = shrinkage.numerators(lam)
        return cache[key]

    w1p = w2p = 0.0
    for t in range(n_iter):
        a, sf2, rho1 = ch_u.dmmse_stats(w1p)
        b, sg2, rho2 = ch_v.dmmse_stats(w2p)
        # past convergence the schedule repeats the rho of its last step
        assert rho1 == pytest.approx(se.rho1[t], rel=1e-9)
        assert rho2 == pytest.approx(se.rho2[t], rel=1e-9)
        den = DenoiserSet(shrinkage, rho1, rho2)
        denoisers = tuple(lambda l, i=i, den=den: den.evaluate(l, numerators(l))[i]
                          for i in range(4))
        w1p, w2p = se.w1[t], se.w2[t]
        yield (a, sf2), (b, sg2), denoisers, (w1p, w2p)


def general_se_gaps(shrinkage, ch_u, ch_v, n_iter):
    """Per step t = 1..n_iter, the largest of |mu_u - w1|, |mu_u^2 +
    sigma_u^2 - w1| and the same on v, where (mu, sigma^2) come from the
    general state evolution driven by ``DenoiserSet`` along the schedule of
    ``optimal_se_run`` and w are that schedule's strengths."""
    meas = shrinkage.build_induced_measures()
    gaps = []
    for stats_f, stats_g, denoisers, (w1, w2) in optimal_steps(shrinkage, ch_u, ch_v,
                                                               n_iter):
        mu_u, su2, mu_v, sv2 = se_step_general(
            meas, shrinkage.spectrum, stats_f, stats_g, *denoisers)
        gaps.append(max(abs(mu_u - w1), abs(mu_u ** 2 + su2 - w1),
                        abs(mu_v - w2), abs(mu_v ** 2 + sv2 - w2)))
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


@pytest.fixture(scope="module")
def optimal_steps_delta05(channels):
    """{(kind, t): (measures, spectrum, stats_f, stats_g, denoisers)} at
    theta = 2 for MP and Beta(3/2, 3/2) on [1, 3], delta = 0.5, t = 1..3."""
    out = {}
    for kind, spectrum in (("mp", MarchenkoPastur(0.5)),
                           ("beta", ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5))):
        shrinkage = ShrinkageSet(spectrum, 2.0)
        meas = shrinkage.build_induced_measures()
        for t, (stats_f, stats_g, denoisers, _) in enumerate(
                optimal_steps(shrinkage, *channels, 3), start=1):
            out[kind, t] = meas, spectrum, stats_f, stats_g, denoisers
    return out


class TestOptimality:
    # the paper's claim that optimal OAMP minimizes the predicted MSE at each
    # iteration: no perturbation of (F*, Ftil*) that keeps F zero-mean under
    # mu, nor of (G*, Gtil*) that keeps G zero-mean under mu-tilde, raises
    # the next normalized strength mu^2 / (mu^2 + sigma^2).  The
    # perturbations are eps times sums of cos(k pi lambda / L), k < 4, with
    # L the largest atom.  Over that family the largest possible gain (from
    # the strength's gradient and Hessian at the optimum) is below 1e-15 on
    # MP, whose transforms are closed form, and 8e-9 on Beta at t = 3, where
    # the on-node Hilbert transform's O(1e-4) defect leaves a first-order term
    TOL = {"mp": 1e-12, "beta": 1e-7}
    K = 4

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["mp", "beta"]), t=st.sampled_from([1, 3]),
           log_eps=st.floats(-6.0, 0.0),
           coef=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    def test_no_perturbation_raises_the_strength(self, optimal_steps_delta05, kind, t,
                                                 log_eps, coef):
        meas, spectrum, stats_f, stats_g, (F, Ftil, G, Gtil) = \
            optimal_steps_delta05[kind, t]
        scale = max([spectrum.support[1]] + [a.location for a in meas.atoms])
        eps, k = 10.0 ** log_eps, self.K

        def wave(c, measure=None):
            f = lambda l: sum(ck * np.cos(j * np.pi * np.asarray(l) / scale)
                              for j, ck in enumerate(c))
            centre = measure.integrate(f) if measure else 0.0
            return lambda l: eps * (f(l) - centre)

        dF, dFtil = wave(coef[:k], spectrum.measure()), wave(coef[k:2 * k])
        dG, dGtil = wave(coef[2 * k:3 * k], spectrum.measure_tilde()), wave(coef[3 * k:])
        assert spectrum.measure().integrate(dF) == pytest.approx(0.0, abs=1e-14)
        assert spectrum.measure_tilde().integrate(dG) == pytest.approx(0.0, abs=1e-14)

        def strengths(*denoisers):
            mu_u, su2, mu_v, sv2 = se_step_general(meas, spectrum, stats_f, stats_g,
                                                   *denoisers)
            return mu_u ** 2 / (mu_u ** 2 + su2), mu_v ** 2 / (mu_v ** 2 + sv2)

        best = strengths(F, Ftil, G, Gtil)
        moved = strengths(lambda l: F(l) + dF(l), lambda l: Ftil(l) + dFtil(l),
                          lambda l: G(l) + dG(l), lambda l: Gtil(l) + dGtil(l))
        for side in (0, 1):
            assert moved[side] - best[side] <= self.TOL[kind]


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
        # rejected up front, not after the iteration budget
        for theta in (np.nan, np.inf):
            with pytest.raises(StateEvolutionError, match="invalid parameters"):
                gaussian_fixed_point(theta, 0.5, *channels)
