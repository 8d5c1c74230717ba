"""Matrix denoisers, spectral application, and the OAMP iterations."""

import numpy as np
import pytest

from rectoamp.model import PriorModel, make_instance, thin_svd
from rectoamp.oamp import (DenoiserSet, GeneralOampSpec, OampError,
                           apply_cross_left, apply_cross_right, apply_left,
                           apply_right, general_oamp_run, optimal_oamp_run)
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShrinkageSet
from rectoamp.state_evolution import optimal_se_run


@pytest.fixture(scope="module")
def small_instance():
    prior = PriorModel("rademacher", 0.04)
    inst = make_instance(prior, prior, "gaussian", 120, 240, 2.0, 1)
    return inst, thin_svd(inst.Y)


class TestApplySpectral:
    def test_left_identity(self, small_instance):
        inst, svd = small_instance
        x = np.sin(np.arange(inst.M, dtype=float))
        out = apply_left(svd, np.ones(inst.M), x)
        assert np.allclose(out, x, atol=1e-10)

    def test_left_lambda(self, small_instance):
        inst, svd = small_instance
        x = np.cos(np.arange(inst.M, dtype=float))
        out = apply_left(svd, svd.eigenvalues, x)
        assert np.allclose(out, inst.Y @ (inst.Y.T @ x), atol=1e-8)

    def test_right_null_space(self, small_instance):
        inst, svd = small_instance
        rng = np.random.default_rng(0)
        y = rng.normal(size=inst.N)
        y -= svd.V @ (svd.V.T @ y)          # project onto the null space
        out = apply_right(svd, svd.eigenvalues, 0.7, y)
        assert np.allclose(out, 0.7 * y, atol=1e-10)

    def test_cross_terms(self, small_instance):
        inst, svd = small_instance
        rng = np.random.default_rng(1)
        g = rng.normal(size=inst.N)
        f = rng.normal(size=inst.M)
        h = 1.0 / (1.0 + svd.eigenvalues)
        # h(YY^T) Y g via dense reference
        dense = np.linalg.solve(np.eye(inst.M) + inst.Y @ inst.Y.T, inst.Y @ g)
        assert np.allclose(apply_cross_left(svd, h, g), dense, atol=1e-8)
        dense_r = inst.Y.T @ np.linalg.solve(
            np.eye(inst.M) + inst.Y @ inst.Y.T, f)
        assert np.allclose(apply_cross_right(svd, h, f), dense_r, atol=1e-8)


class TestDenoiserSet:
    def test_trace_free_means(self, shrink_mp2, shrink_beta2):
        for sh in (shrink_mp2, shrink_beta2):
            den = DenoiserSet(sh, 1.3, 0.8)
            mu = sh.spectrum.measure()
            d = sh.delta
            mean_f = mu.integrate(lambda l: den.evaluate(l)[0])
            mean_g = (d * mu.integrate(lambda l: den.evaluate(l)[2])
                      + (1 - d) * den.g_zero())
            assert abs(mean_f) <= 1e-10
            assert abs(mean_g) <= 1e-10

    def test_theta_zero_f_vanishes(self, mp05):
        sh = ShrinkageSet(mp05, 0.0)
        den = DenoiserSet(sh, 1.0, 1.0)
        lam = np.linspace(*mp05.support, 50)
        f, ftil, g, gtil = den.evaluate(lam)
        assert np.allclose(f, 0.0, atol=1e-12)
        assert np.allclose(ftil, 0.0, atol=1e-12)
        assert np.allclose(g, 0.0, atol=1e-12)
        assert np.allclose(gtil, 0.0, atol=1e-12)

    def test_matches_naive_formulas(self, shrink_mp2):
        # independent implementation straight from the phi-ratio definitions
        sh = shrink_mp2
        rho1, rho2 = 1.0, 1.0
        den = DenoiserSet(sh, rho1, rho2)
        lam = np.linspace(0.2, 2.8, 40)
        p1, p2, p3 = sh.phi(lam)
        d = sh.delta
        D = (rho1 * p1 + 1) * (rho2 * p2 + d) * lam - rho1 * rho2 * p3 ** 2
        p_star = lam * (rho2 * p2 + d) / D
        ptil_star = np.sqrt(d) * rho2 * p3 / D
        q_star = d * lam * (rho1 * p1 + 1) / D
        f, ftil, g, _ = den.evaluate(lam)
        assert np.allclose(f, (1 + 1 / rho1) * (1 - p_star / den.mean_p),
                           atol=1e-10)
        assert np.allclose(ftil, (1 + 1 / rho2) * ptil_star / den.mean_p,
                           atol=1e-10)
        assert np.allclose(g, (1 + 1 / rho2) * (1 - q_star / den.mean_q),
                           atol=1e-10)

    def test_finite_at_outlier(self, shrink_mp2):
        # at the outlier root the raw P*/D form is 0/0; the cleared form is exact
        den = DenoiserSet(shrink_mp2, 1.5, 2.5)
        lam_star = shrink_mp2.find_spectral_atoms()[0].location
        f, ftil, g, gtil = den.evaluate(np.array([lam_star]))
        assert f[0] == pytest.approx(1 + 1 / 1.5, rel=1e-8)
        assert ftil[0] == pytest.approx(0.0, abs=1e-10)
        assert g[0] == pytest.approx(1 + 1 / 2.5, rel=1e-8)
        assert gtil[0] == pytest.approx(0.0, abs=1e-10)

    def test_invalid_rho(self, shrink_mp2):
        with pytest.raises(OampError):
            DenoiserSet(shrink_mp2, -1.0, 1.0)

    def test_empirical_trace_free(self, shrink_mp2):
        # |trace F*(YY^T)| / M stays small on simulated eigenvalues
        prior = PriorModel("rademacher", 0.04)
        inst = make_instance(prior, prior, "gaussian", 1000, 2000, 2.0, 0)
        svd = thin_svd(inst.Y)
        den = DenoiserSet(shrink_mp2, 2.0, 2.0)
        f = den.evaluate(svd.eigenvalues)[0]
        assert abs(np.sum(f)) / inst.M <= 0.01


class TestOptimalRun:
    def test_trace_shape_and_range(self, ens_fig1):
        tr = ens_fig1[0]["oamp"]
        assert len(tr.cos2_u) == 10 and len(tr.cos2_v) == 10
        assert all(0 <= c <= 1 for c in tr.cos2_u + tr.cos2_v)
        assert set(tr.iterates) == {1, 3}

    def test_strengths_read_from_schedule(self, small_instance, shrink_mp2,
                                          channels):
        inst, svd = small_instance
        schedule = optimal_se_run(shrink_mp2, *channels, 4)
        tr = optimal_oamp_run(inst, svd, shrink_mp2, *channels, schedule)
        assert tr.w1 == schedule.w1 and tr.w2 == schedule.w2

    def test_theta_zero_stays_at_side_info_floor(self, mp05):
        prior = PriorModel("rademacher", 0.3)
        inst = make_instance(prior, prior, "gaussian", 400, 800, 0.0, 3)
        sh = ShrinkageSet(mp05, 0.0)
        ch = ScalarChannel("rademacher", 0.3)
        tr = optimal_oamp_run(inst, thin_svd(inst.Y), sh, ch, ch,
                              optimal_se_run(sh, ch, ch, 3))
        floor = 1.0 - ch.mmse(0.0)
        for c in tr.cos2_u:
            assert c == pytest.approx(floor, abs=0.05)

    def test_permutation_equivariance(self, mp05, shrink_mp2, channels):
        prior = PriorModel("rademacher", 0.04)
        inst = make_instance(prior, prior, "gaussian", 150, 300, 2.0, 7)
        svd = thin_svd(inst.Y)
        schedule = optimal_se_run(shrink_mp2, *channels, 2)
        tr = optimal_oamp_run(inst, svd, shrink_mp2, *channels, schedule,
                              keep_iterates=(2,))
        perm = np.random.default_rng(0).permutation(inst.M)
        inst_p = make_instance(prior, prior, "gaussian", 150, 300, 2.0, 7)
        inst_p.Y = inst.Y[perm]
        inst_p.u_star = inst.u_star[perm]
        inst_p.a = inst.a[perm]
        tr_p = optimal_oamp_run(inst_p, thin_svd(inst_p.Y), shrink_mp2,
                                *channels, schedule, keep_iterates=(2,))
        assert np.allclose(tr_p.iterates[2][0], tr.iterates[2][0][perm],
                           atol=1e-8)


class TestGeneralRun:
    def _optimal_spec(self, shrinkage, channels, se_trace):
        ch_u, ch_v = channels

        def matrix_denoisers(t):
            w1p = se_trace.w1[t - 2] if t >= 2 else 0.0
            w2p = se_trace.w2[t - 2] if t >= 2 else 0.0
            den = DenoiserSet(shrinkage, se_trace.rho1[t - 1],
                              se_trace.rho2[t - 1])
            s1 = 1.0 / np.sqrt(se_trace.w1[t - 1])
            s2 = 1.0 / np.sqrt(se_trace.w2[t - 1])
            return (lambda l: s1 * den.evaluate(l)[0],
                    lambda l: s1 * den.evaluate(l)[1],
                    lambda l: s2 * den.evaluate(l)[2],
                    lambda l: s2 * den.evaluate(l)[3],
                    s2 * den.g_zero())

        def denoiser_u(t, u_it, a):
            return ch_u.dmmse(u_it, a, se_trace.w1[t - 2] if t >= 2 else 0.0)

        def denoiser_v(t, v_it, b):
            return ch_v.dmmse(v_it, b, se_trace.w2[t - 2] if t >= 2 else 0.0)

        return GeneralOampSpec(
            matrix_denoisers, denoiser_u, denoiser_v,
            post_u=lambda t, u, a: ch_u.posterior_mean(u, a, se_trace.w1[t - 1]),
            post_v=lambda t, v, b: ch_v.posterior_mean(v, b, se_trace.w2[t - 1]))

    def test_matches_optimal_run(self, mp05, shrink_mp2, channels):
        prior = PriorModel("rademacher", 0.04)
        inst = make_instance(prior, prior, "gaussian", 200, 400, 2.0, 5)
        svd = thin_svd(inst.Y)
        se = optimal_se_run(shrink_mp2, *channels, 4)
        spec = self._optimal_spec(shrink_mp2, channels, se)
        tr_gen = general_oamp_run(inst, svd, spec, mp05, 4)
        tr_opt = optimal_oamp_run(inst, svd, shrink_mp2, *channels, se)
        assert np.allclose(tr_gen.cos2_u, tr_opt.cos2_u, atol=1e-10)
        assert np.allclose(tr_gen.cos2_v, tr_opt.cos2_v, atol=1e-10)

    def test_zero_denoisers(self, mp05, small_instance):
        inst, svd = small_instance
        # F = identity-minus-mean is trace-free; zero scalar denoisers kill it
        spec = GeneralOampSpec(
            lambda t: (lambda l: l - 1.0, lambda l: 0.0 * l,
                       lambda l: 0.0 * l, lambda l: 0.0 * l, 0.0),
            lambda t, u, a: 0.0 * u, lambda t, v, b: 0.0 * v)
        tr = general_oamp_run(inst, svd, spec, mp05, 2)
        assert tr.cos2_u == [0.0, 0.0]

    def test_biased_matrix_denoiser_rejected(self, mp05, small_instance):
        inst, svd = small_instance
        spec = GeneralOampSpec(
            lambda t: (lambda l: np.ones_like(l), lambda l: 0.0 * l,
                       lambda l: 0.0 * l, lambda l: 0.0 * l, 0.0),
            lambda t, u, a: u, lambda t, v, b: v)
        with pytest.raises(OampError, match="trace-free"):
            general_oamp_run(inst, svd, spec, mp05, 1)
