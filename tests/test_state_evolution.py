"""State-evolution recursions and the Gaussian-noise fixed point."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rectoamp.harness import DOMAIN_ERRORS
from rectoamp.oamp import DenoiserSet
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet, detection_threshold
from rectoamp.state_evolution import (StateEvolutionError, amp_se_trajectory,
                                      gaussian_fixed_point, optimal_se_run)

from general_se import dmmse_stats, measure_tilde, se_step_general
from tabulated import Tabulated


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
        a, sf2, rho1 = dmmse_stats(ch_u, w1p)
        b, sg2, rho2 = dmmse_stats(ch_v, w2p)
        den = DenoiserSet(shrink_mp2, rho1, rho2)
        meas = shrink_mp2.build_induced_measures()
        mu_u, su2, mu_v, sv2 = se_step_general(
            meas, mp05, (a, sf2), (b, sg2),
            *(lambda l, i=i: den.evaluate(l)[i]
              for i in range(4)))
        w1, w2 = den.next_strengths()
        assert mu_u == pytest.approx(w1, abs=1e-8)
        assert mu_u ** 2 + su2 == pytest.approx(w1, abs=1e-8)
        assert mu_v == pytest.approx(w2, abs=1e-8)
        assert mu_v ** 2 + sv2 == pytest.approx(w2, abs=1e-8)


def optimal_steps(shrinkage, ch_u, ch_v, n_iter):
    """Per step t = 1..n_iter of the schedule of ``optimal_se_run``: the
    stats (alpha, sigma_f^2) and (beta, sigma_g^2) of the scalar denoisers'
    outputs, the step's optimal matrix denoisers (F*, Ftil*, G*, Gtil*) of
    its ``DenoiserSet`` as callables on the lambda axis, and the schedule's
    strengths (w1, w2) after the step."""
    se = optimal_se_run(shrinkage, ch_u, ch_v, n_iter)
    w1p = w2p = 0.0
    for t, den in enumerate(se.denoisers):
        a, sf2, rho1 = dmmse_stats(ch_u, w1p)
        b, sg2, rho2 = dmmse_stats(ch_v, w2p)
        # every step's set is built at rho(w_{t-1})
        assert (den.rho1, den.rho2) == (rho1, rho2)
        cache = {}

        def values(lam, den=den, cache=cache):
            # the oracle reads all four denoisers on one grid: evaluate it once
            lam = np.atleast_1d(np.asarray(lam, dtype=float))
            key = lam.tobytes()
            if key not in cache:
                cache[key] = den.evaluate(lam)
            return cache[key]

        denoisers = tuple(lambda l, i=i, values=values: values(l)[i] for i in range(4))
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
    # Hilbert transform (gaps 8.9e-12, 1.4e-5, 3.0e-5, 9.2e-6, 3.4e-5, 8.6e-5,
    # 1.4e-5)
    @pytest.mark.parametrize("make,tol", [
        (lambda: MarchenkoPastur(0.5), 1e-10),
        (lambda: MarchenkoPastur(1.0), 1e-4),
        (lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5), 1e-4),
        (lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 1.0), 1e-4),
        (lambda: ShiftedBeta(0.5, 2.0, 1.0, 3.0, 0.5), 1e-4),
        (lambda: Tabulated(np.linspace(1.0, 3.0, 201),
                           np.sin(np.linspace(0.0, np.pi, 201)), 0.5), 1e-4),
        # converges at t = 3 where rho is steep in w (d ln rho / dw ~ 1.6e3)
        (lambda: Tabulated(np.linspace(1.0, 3.0, 201),
                           np.sin(np.linspace(0.0, np.pi, 201)) ** 1.5
                           * np.linspace(1.0, 2.0, 201) ** 0.5, 1.0), 1e-4)],
        ids=["mp_delta05", "mp_delta1", "beta_delta05", "beta_delta1",
             "beta_a05_b2", "tabulated_sine_delta05", "tabulated_steep_delta1"])
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
        dG, dGtil = wave(coef[2 * k:3 * k], measure_tilde(spectrum)), wave(coef[3 * k:])
        assert spectrum.measure().integrate(dF) == pytest.approx(0.0, abs=1e-14)
        assert measure_tilde(spectrum).integrate(dG) == pytest.approx(0.0, abs=1e-14)

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

    @pytest.mark.parametrize("n", [1, 10, 400])
    def test_one_mmse_per_strength(self, shrink_mp2, channels, monkeypatch, n):
        # the loop evaluates each channel's mmse once per strength, w = 0
        # included, and each OAMP step takes its rho from those values; the
        # AMP map adds at most one mmse_V, at its new w2, per step
        calls = []
        real = ScalarChannel.mmse
        monkeypatch.setattr(ScalarChannel, "mmse",
                            lambda ch, w: calls.append(w) or real(ch, w))
        optimal_se_run(shrink_mp2, *channels, n)
        assert len(calls) == 2 * n + 2
        calls.clear()
        amp_se_trajectory(2.0, 0.5, *channels, n)
        assert len(calls) <= 3 * n + 2

    def test_rho_positive(self, shrink_mp2, channels):
        tr = optimal_se_run(shrink_mp2, *channels, 10)
        assert all(r > 0 for den in tr.denoisers for r in (den.rho1, den.rho2))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["mp", "beta"]), delta=st.sampled_from([0.25, 0.5, 1.0]),
           log_theta=st.one_of(st.just(-np.inf), st.floats(-3.0, 9.0)),
           near=st.booleans(), ratio=st.floats(0.5, 2.0),
           prior=st.sampled_from(["rademacher", "gaussian"]),
           log_w0=st.floats(-9.0, np.log10(0.9)), n_iter=st.sampled_from([60, 400]))
    def test_steps_past_convergence(self, kind, delta, log_theta, near, ratio, prior,
                                    log_w0, n_iter):
        # every step is taken: past converged_at the strengths stay within
        # 1e-11 of its own (5.7e-13 seen), and a schedule that fails does so
        # before it converges, which is where a schedule that stopped there
        # would have failed too
        spectrum = (MarchenkoPastur(delta) if kind == "mp"
                    else ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta))
        theta = ratio * detection_threshold(spectrum) if near else 10.0 ** log_theta
        shrinkage = ShrinkageSet(spectrum, theta)
        channel = ScalarChannel(prior, 10.0 ** log_w0)

        def schedule(steps):
            try:
                return optimal_se_run(shrinkage, channel, channel, steps)
            except DOMAIN_ERRORS:
                return None

        tr = schedule(n_iter)
        if tr is None:
            ran, failed = 0, n_iter      # the longest schedule that completes
            while failed - ran > 1:
                mid = (ran + failed) // 2
                ran, failed = (ran, mid) if schedule(mid) is None else (mid, failed)
            assert schedule(ran).converged_at is None
            return
        if tr.converged_at is not None:
            at = tr.converged_at - 1
            for w in (tr.w1, tr.w2):
                assert max(abs(x - w[at]) for x in w[at:]) <= 1e-11


class TestGaussianFixedPoint:
    def test_matches_optimal_recursion(self, channels):
        # on MP noise OAMP's limit is the Gaussian fixed point, at delta = 1
        # too, where the spectrum has a lambda^(-1/2) edge at 0
        for delta, theta in ((0.5, 2.0), (1.0, 2.0), (1.0, 1.2)):
            tr = optimal_se_run(ShrinkageSet(MarchenkoPastur(delta), theta), *channels, 200)
            fixed = gaussian_fixed_point(theta, delta, *channels)
            limit = (tr.w1[-1], tr.w2[-1], tr.mmse_u[-1], tr.mmse_v[-1])
            assert np.max(np.abs(np.subtract(limit, fixed))) <= 1e-11, (delta, theta)

    @pytest.mark.xfail(strict=True, reason="the node rule misses the means' peak at the "
                       "upper edge near the threshold: OAMP's limit reaches w1 = 4.576e-5 "
                       "against the fixed point's 1.189e-4 (ROADMAP direction 19(c))")
    def test_optimal_limit_just_below_the_threshold(self):
        delta, theta = 0.5, 0.8408964
        ch = ScalarChannel("rademacher", 1e-8)
        tr = optimal_se_run(ShrinkageSet(MarchenkoPastur(delta), theta), ch, ch, 400)
        w1 = gaussian_fixed_point(theta, delta, ch, ch)[0]
        assert abs(tr.w1[-1] - w1) <= 1e-10, f"w1 {tr.w1[-1]:.4g} against {w1:.4g}"

    # The paper's claim for Gaussian noise: OAMP's state evolution has the
    # AMP fixed point as its limit, over both priors, delta, theta and the
    # side information.  Two regions are left out, where the node rule
    # misses a peaked integrand of the spectral means: |theta / theta_c - 1|
    # < 3e-3 (at 1e-3 with w0 = 1e-9 the first strength leaves [0, 1), at
    # 1.5e-3 the limit is off by 2.8e-8, at 2e-3 by 6.9e-10 and at 3e-3 by
    # 9.4e-12), and delta in (0.99, 1), whose spectrum has the pole of 1 /
    # lambda within (1 - sqrt(delta))^2 of its lower edge (off by 1.3e-8 at
    # delta = 0.995 and 7.0e-6 at 0.999, theta = 2 theta_c)
    @settings(max_examples=50, deadline=None)
    @given(prior_u=st.sampled_from(["rademacher", "gaussian"]),
           prior_v=st.sampled_from(["rademacher", "gaussian"]),
           delta=st.one_of(st.floats(0.05, 0.99, exclude_min=True), st.just(1.0)),
           ratio=st.floats(0.0, 5.0), log_w0=st.floats(-9.0, np.log10(0.5)))
    @example(prior_u="rademacher", prior_v="rademacher", delta=0.5,
             ratio=0.4204482 / 0.5 ** 0.25, log_w0=-8.0)
    def test_optimal_limit_is_the_fixed_point(self, prior_u, prior_v, delta, ratio, log_w0):
        assume(abs(ratio - 1.0) >= 3e-3)
        theta, w0 = ratio * delta ** 0.25, 10.0 ** log_w0
        ch_u, ch_v = ScalarChannel(prior_u, w0), ScalarChannel(prior_v, w0)
        tr = optimal_se_run(ShrinkageSet(MarchenkoPastur(delta), theta), ch_u, ch_v, 400)
        fixed = gaussian_fixed_point(theta, delta, ch_u, ch_v)
        limit = (tr.w1[-1], tr.w2[-1], tr.mmse_u[-1], tr.mmse_v[-1])
        assert np.max(np.abs(np.subtract(limit, fixed))) <= 1e-10

    def test_solves_the_system(self, channels):
        ch_u, ch_v = channels
        delta = 0.5
        for theta in (2.0, 50.0):
            w1, w2, m_u, m_v = gaussian_fixed_point(theta, delta, ch_u, ch_v)
            assert m_u == pytest.approx(1 - w2 / (1 - w2) / theta ** 2, abs=1e-9)
            assert m_v == pytest.approx(1 - delta * w1 / (1 - w1) / theta ** 2,
                                        abs=1e-9)

    def test_solves_the_system_at_the_threshold(self):
        # theta 4e-12 below delta^(1/4), side information 1e-6: the AMP
        # schedule takes about 4500 steps to settle; theta 1.5e-8 below and
        # 3.6e-6 above it, side information 1e-8: after 10^4 steps the
        # schedule still moves 1.6e-9 and 1.7e-9 a step.  The root solves both
        # equations, and the AMP map moves it by at most two units in the
        # last place
        delta = 0.5
        for theta, w0 in ((0.84089641525, 1e-6), (0.8408964, 1e-8), (0.8409, 1e-8)):
            ch = ScalarChannel("rademacher", w0)
            w1, w2, m_u, m_v = gaussian_fixed_point(theta, delta, ch, ch)
            assert m_u == pytest.approx(1 - w2 / (1 - w2) / theta ** 2, abs=1e-10)
            assert m_v == pytest.approx(1 - delta * w1 / (1 - w1) / theta ** 2,
                                        abs=1e-10)
            gamma = theta ** 2 / delta * (1 - ch.mmse(w2))
            assert abs(gamma / (1 + gamma) - w1) <= 2 * np.spacing(w1)
            assert w1 > 1e-4

    def test_zero_snr_floor(self, channels):
        ch = ScalarChannel("rademacher", 0.04)
        for theta in (1e-6, 0.0):
            w1, w2, m_u, m_v = gaussian_fixed_point(theta, 0.5, ch, ch)
            # no signal flows: strengths collapse and mmse sits at the prior
            # level; at theta = 0 the first AMP step, T(0) = 0, is the root
            assert w1 <= 1e-9 and w2 <= 1e-9
            assert m_u == pytest.approx(ch.mmse(0.0), abs=1e-6)
        assert w1 == w2 == 0.0 and m_u == m_v == ch.mmse(0.0)

    def test_large_snr(self):
        ch = ScalarChannel("rademacher", 0.04)
        _, _, m_u, m_v = gaussian_fixed_point(50.0, 0.5, ch, ch)
        assert m_u <= 1e-3 and m_v <= 1e-3

    def test_amp_schedule_reaches_it(self, channels):
        for theta in (2.0, 0.0, 50.0):
            w1, w2, m_u, m_v = gaussian_fixed_point(theta, 0.5, *channels)
            tr = amp_se_trajectory(theta, 0.5, *channels, 200)
            assert abs(tr.w1[-1] - w1) <= 1e-9 and abs(tr.w2[-1] - w2) <= 1e-9
            assert tr.cos2_u[-1] == pytest.approx(1 - m_u, abs=1e-9)
            assert tr.denoisers == []

    # Iterates of the AMP schedule from w = 0 climb to the least fixed point,
    # so each is a lower bound on it, and the root must lie above them all
    # (up to the rounding of the map, 1e-15).  Where the schedule settles
    # (a last move of at most 1e-15) its last iterate is the least fixed
    # point up to rounding, and the root must meet it: to 1e-12 where theta
    # is at least 5 % from the threshold delta^(1/4), and to 1e-9 within
    # 5 %, where the map's slope at the root nears 1 and a settled schedule
    # sits further from it (2.3e-13 at 0.1 % above the threshold, delta =
    # 0.05, after 2e4 steps).  Closer still the schedule creeps and does not
    # settle: at the threshold with delta = 1 and w0 = 1e-8 it is 4.6e-5
    # short after 3000 steps and 6.7e-8 after 2e4.  There only the bound is
    # checked; outside the 5 % band every schedule must settle.
    N_STEPS = 3000

    @settings(max_examples=25, deadline=None)
    @given(prior_u=st.sampled_from(["rademacher", "gaussian"]),
           prior_v=st.sampled_from(["rademacher", "gaussian"]),
           delta=st.floats(0.05, 1.0), theta=st.floats(0.0, 10.0),
           w0=st.floats(1e-8, 0.9))
    @example(prior_u="rademacher", prior_v="rademacher", delta=1.0, theta=0.99,
             w0=1e-6)    # near the threshold, settles
    @example(prior_u="rademacher", prior_v="rademacher", delta=1.0, theta=1.0,
             w0=1e-8)    # at it, creeps
    def test_root_is_the_least_fixed_point(self, prior_u, prior_v, delta, theta, w0):
        ch_u, ch_v = ScalarChannel(prior_u, w0), ScalarChannel(prior_v, w0)
        w1, w2, _, _ = gaussian_fixed_point(theta, delta, ch_u, ch_v)
        tr = amp_se_trajectory(theta, delta, ch_u, ch_v, self.N_STEPS)
        assert max(tr.w1) <= w1 + 1e-15 and max(tr.w2) <= w2 + 1e-15
        far = abs(theta - delta ** 0.25) >= 0.05 * delta ** 0.25
        settled = abs(tr.w1[-1] - tr.w1[-2]) <= 1e-15
        assert settled or not far
        if settled:
            tol = 1e-12 if far else 1e-9
            assert abs(tr.w1[-1] - w1) <= tol and abs(tr.w2[-1] - w2) <= tol

    def test_invalid_parameters(self, channels):
        with pytest.raises(StateEvolutionError):
            gaussian_fixed_point(2.0, 1.5, *channels)
        # rejected up front, not after the iteration budget; past about
        # 1e154, theta^2 / delta is no float
        for theta in (np.nan, np.inf, 1e154, 1e300):
            with pytest.raises(StateEvolutionError, match="invalid parameters"):
                gaussian_fixed_point(theta, 0.5, *channels)
