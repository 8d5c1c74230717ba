"""Matrix denoisers, spectral application, and the OAMP iterations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectoamp import oamp
from rectoamp.model import component_rng, make_instance, thin_svd
from rectoamp.oamp import (DenoiserSet, OampError, apply_cross_left,
                           apply_cross_right, apply_left, apply_right,
                           optimal_oamp_run)
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta, ShrinkageSet
from rectoamp.state_evolution import optimal_se_run

from conftest import RecordingChannel
from general_se import dmmse_stats


@pytest.fixture(scope="module")
def small_instance(mp05):
    side = ScalarChannel("rademacher", 0.04)
    inst = make_instance(side, side, mp05, 120, 240, 2.0, 1)
    return inst, thin_svd(inst.Y)


class TestApplySpectral:
    def test_left_identity(self, small_instance):
        inst, svd = small_instance
        x = np.sin(np.arange(inst.M, dtype=float))
        out = apply_left(svd, np.ones(inst.M), svd.U.T @ x)
        assert np.allclose(out, x, atol=1e-10)

    def test_left_lambda(self, small_instance):
        inst, svd = small_instance
        x = np.cos(np.arange(inst.M, dtype=float))
        out = apply_left(svd, svd.eigenvalues, svd.U.T @ x)
        assert np.allclose(out, inst.Y @ (inst.Y.T @ x), atol=1e-8)

    def test_right_null_space(self, small_instance):
        inst, svd = small_instance
        rng = np.random.default_rng(0)
        y = rng.normal(size=inst.N)
        y -= svd.V @ (svd.V.T @ y)          # project onto the null space
        out = apply_right(svd, svd.eigenvalues, 0.7, y,
                          svd.U.T @ (inst.Y @ y))
        assert np.allclose(out, 0.7 * y, atol=1e-10)

    def test_cross_terms(self, small_instance):
        inst, svd = small_instance
        rng = np.random.default_rng(1)
        g = rng.normal(size=inst.N)
        f = rng.normal(size=inst.M)
        h = 1.0 / (1.0 + svd.eigenvalues)
        # h(YY^T) Y g via dense reference
        dense = np.linalg.solve(np.eye(inst.M) + inst.Y @ inst.Y.T, inst.Y @ g)
        assert np.allclose(apply_cross_left(svd, h, svd.U.T @ (inst.Y @ g)),
                           dense, atol=1e-8)
        dense_r = inst.Y.T @ np.linalg.solve(
            np.eye(inst.M) + inst.Y @ inst.Y.T, f)
        assert np.allclose(apply_cross_right(svd, h, svd.U.T @ f), dense_r,
                           atol=1e-8)

    @staticmethod
    def observation(case):
        """Y of each factorization path: the Gram path for MP at delta = 0.5
        and 1 and Beta RI, the direct-SVD fallback for a zero row and a zero
        matrix (the inputs of test_rank_deficient_falls_back)."""
        side = ScalarChannel("rademacher", 0.04)
        if case == "zero_matrix":
            return np.zeros((20, 40))
        if case == "zero_row":
            Y = component_rng(3, "noise").standard_normal((30, 60)) / np.sqrt(60)
            Y[7] = 0.0
            return Y
        M, N = {"mp_delta05": (120, 240), "mp_delta1": (120, 120),
                "beta_ri": (120, 240)}[case]
        spectrum = MarchenkoPastur(M / N)
        if case == "beta_ri":
            spectrum = ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5)
        return make_instance(side, side, spectrum, M, N, 2.0, 1).Y

    @pytest.mark.parametrize("case", ["mp_delta05", "mp_delta1", "beta_ri",
                                      "zero_row", "zero_matrix"])
    @pytest.mark.filterwarnings("error")
    def test_match_explicit_v_oracle(self, case):
        """The four products through U and Y against U diag(.) V^T products
        with the factors of np.linalg.svd, to 1e-12 relative."""
        Y = self.observation(case)
        M, N = Y.shape
        svd = thin_svd(Y)
        fallback = case.startswith("zero")
        assert (svd._right is not None) == fallback
        if case == "zero_matrix":
            assert np.all(svd.eigenvalues == 0.0)    # the lambda = 0 guard
        U, sv, Vt = np.linalg.svd(Y, full_matrices=False)

        def h(lam):
            return np.exp(-lam) + 0.5 * lam / (1.0 + lam)
        hvals, h_ref, h0 = h(svd.eigenvalues), h(sv ** 2), h(0.0)
        rng = np.random.default_rng(2)
        x, f = rng.normal(size=M), rng.normal(size=M)
        g, y = rng.normal(size=N), rng.normal(size=N)
        pairs = [
            (apply_left(svd, hvals, svd.U.T @ x), U @ (h_ref * (U.T @ x))),
            (apply_cross_left(svd, hvals, svd.U.T @ (Y @ g)),
             U @ (h_ref * sv * (Vt @ g))),
            (apply_cross_right(svd, hvals, svd.U.T @ f),
             Vt.T @ (h_ref * sv * (U.T @ f))),
            (apply_right(svd, hvals, h0, y, svd.U.T @ (Y @ y)),
             h0 * y + Vt.T @ ((h_ref - h0) * (Vt @ y))),
        ]
        for out, ref in pairs:
            assert np.all(np.isfinite(out))
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def assert_continuous_at_atoms(den):
    """At every spectral atom the four denoisers are finite and lie within
    1e-3 relative of their values 1e-4 to either side."""
    atoms = den.shrinkage.find_spectral_atoms()
    assert atoms
    for atom in atoms:
        lam = atom.location + np.array([0.0, -1e-4, 1e-4])
        values = den.evaluate(lam)
        at, below, above = np.array(values).T
        assert np.all(np.isfinite(at))
        for side in (below, above):
            assert np.all(np.abs(at - side) <= 1e-3 * np.abs(side))


class TestDenoiserSet:
    def test_trace_free_means(self, shrink_mp2, shrink_beta2):
        for sh in (shrink_mp2, shrink_beta2):
            den = DenoiserSet(sh, 1.3, 0.8)
            mu = sh.spectrum.measure()
            d = sh.delta
            values = den.evaluate
            mean_f = mu.integrate(lambda l: values(l)[0])
            mean_g = (d * mu.integrate(lambda l: values(l)[2])
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
        n1, n2, n3, den_lam = sh.numerators(lam)
        p1, p2, p3 = n1 / den_lam, n2 / den_lam, n3 / den_lam
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
        # at the outlier root den vanishes; the E-form has cancelled it, so
        # the value there continues the values just beside the root
        assert_continuous_at_atoms(DenoiserSet(shrink_mp2, 1.5, 2.5))

    @pytest.mark.parametrize("make", [
        lambda: MarchenkoPastur(1.0),
        lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5),
        lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, 1.0)],
        ids=["mp_delta1", "beta_delta05", "beta_delta1"])
    def test_finite_at_every_atom(self, make):
        # upper and lower atoms alike; largest gap 4.8e-4 at Beta's 0.9433
        sh = ShrinkageSet(make(), 2.0)
        assert_continuous_at_atoms(DenoiserSet(sh, 1.5, 2.5))

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["mp", "beta"]), delta=st.floats(0.05, 1.0),
           theta=st.floats(0.0, 8.0), a=st.floats(0.5, 4.0),
           b=st.floats(0.5, 4.0), lo=st.floats(0.0, 3.0),
           width=st.floats(0.1, 4.0),
           fractions=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=8))
    # theta^2 underflows to 0 where C is infinite, at the upper edge of Beta(1, 1/2)
    @example(kind="beta", delta=1.0, theta=2.4087367933560202e-166, a=1.0, b=0.5,
             lo=0.0, width=1.0, fractions=[1.0])
    def test_numerator_identity(self, kind, delta, theta, a, b, lo, width,
                                fractions):
        # n1 n2 lambda - n3^2 = delta lambda den, on and off the support and
        # at the atoms (largest residual seen 1.3e-14).  The support edges
        # are left out: a Beta shape below 1 makes the density infinite there
        sp = (MarchenkoPastur(delta) if kind == "mp"
              else ShiftedBeta(a, b, lo, lo + width, delta))
        sh = ShrinkageSet(sp, theta)
        lam = np.concatenate((np.array(fractions) * sp.support[1],
                              [atom.location for atom in sh.find_spectral_atoms()]))
        lam = lam[~np.isin(lam, sp.support)]
        n1, n2, n3, den = sh.numerators(lam)
        lhs = n1 * n2 * lam - n3 ** 2
        assert np.all(np.abs(lhs - delta * lam * den)
                      <= 1e-12 * (np.abs(n1 * n2 * lam) + n3 ** 2))

    def test_invalid_rho(self, shrink_mp2):
        with pytest.raises(OampError):
            DenoiserSet(shrink_mp2, -1.0, 1.0)

    def test_empirical_trace_free(self, shrink_mp2, ens_fig1):
        # |trace F*(YY^T)| / M stays small on simulated eigenvalues: those
        # of ens_fig1's seed 0 (MP, 1000 x 2000, theta = 2)
        den = DenoiserSet(shrink_mp2, 2.0, 2.0)
        lam = ens_fig1[0]["eigenvalues"]
        f = den.evaluate(lam)[0]
        assert abs(np.sum(f)) / len(lam) <= 0.01


class TestOptimalRun:
    def test_trace_shape_and_range(self, ens_fig1):
        tr = ens_fig1[0]["oamp"]
        assert len(tr.cos2_u) == 10 and len(tr.cos2_v) == 10
        assert all(0 <= c <= 1 for c in tr.cos2_u + tr.cos2_v)
        assert set(ens_fig1[0]["residuals"]) == {1, 3}

    @pytest.mark.parametrize("steps", [2, 10])
    def test_one_posterior_mean_per_iterate(self, small_instance, shrink_mp2,
                                            channels, steps):
        # each iterate's posterior mean is the step's estimate and the next
        # step's dmmse input alike: n + 1 calls per side for n steps, the
        # first at the zero start, each given that step's raw iterate
        inst, svd = small_instance
        schedule = optimal_se_run(shrink_mp2, *channels, steps)
        rec = [RecordingChannel(ch.prior, ch.w0) for ch in channels]
        tr = optimal_oamp_run(inst, svd, *rec, schedule)
        assert [len(r.inputs) for r in rec] == [steps + 1, steps + 1]
        assert not rec[0].inputs[0].any() and not rec[1].inputs[0].any()
        for t, (w1, w2) in enumerate(zip(schedule.w1, schedule.w2), 1):
            u_hat = channels[0].posterior_mean(rec[0].inputs[t], inst.a, w1)
            v_hat = channels[1].posterior_mean(rec[1].inputs[t], inst.b, w2)
            assert tr.cos2_u[t - 1] == oamp._cos2(u_hat, inst.u_star)
            assert tr.cos2_v[t - 1] == oamp._cos2(v_hat, inst.v_star)

    def test_strengths_read_from_schedule(self, small_instance, shrink_mp2, mp05,
                                          channels, monkeypatch):
        # the schedule builds step t's denoisers at rho(w_{t-1}), and a run
        # applies them without building any
        inst, svd = small_instance
        ch_u, ch_v = channels
        schedule = optimal_se_run(shrink_mp2, *channels, 4)
        built = []
        monkeypatch.setattr(oamp, "DenoiserSet", lambda *args: built.append(args))
        tr = optimal_oamp_run(inst, svd, *channels, schedule)
        monkeypatch.undo()
        assert built == []
        assert len(tr.cos2_u) == 4
        # MP at theta = 3 converges at t = 6 of 10 steps, and each step past
        # it holds a set of its own too
        sh3 = ShrinkageSet(mp05, 3.0)
        converging = optimal_se_run(sh3, *channels, 10)
        assert converging.converged_at == 6
        assert len({id(den) for den in converging.denoisers}) == 10
        for se, sh in ((schedule, shrink_mp2), (converging, sh3)):
            for den, w1, w2 in zip(se.denoisers, [0.0] + se.w1[:-1], [0.0] + se.w2[:-1]):
                assert den.shrinkage is sh
                assert (den.rho1, den.rho2) == (dmmse_stats(ch_u, w1)[2],
                                                dmmse_stats(ch_v, w2)[2])

    def test_numerators_evaluated_once(self, small_instance, shrink_mp2,
                                       shrink_beta2, channels, monkeypatch):
        # the nodes' numerators are kept once per shrinkage set, and each
        # step of a run evaluates its own set's numerators at the eigenvalues
        # once
        for sh in (shrink_mp2, shrink_beta2):
            for kept, fresh in zip(sh.node_numerators,
                                   sh.numerators(sh.spectrum.nodes)):
                assert np.array_equal(kept, fresh)
        inst, svd = small_instance
        schedule = optimal_se_run(shrink_mp2, *channels, 4)
        numerators, evaluated = [], []
        real = ShrinkageSet.numerators, DenoiserSet.evaluate

        def numerators_spy(self, lam):
            numerators.append((self, len(lam)))
            return real[0](self, lam)

        def evaluate_spy(self, lam):
            evaluated.append(self)
            return real[1](self, lam)

        monkeypatch.setattr(ShrinkageSet, "numerators", numerators_spy)
        monkeypatch.setattr(DenoiserSet, "evaluate", evaluate_spy)
        tr = optimal_oamp_run(inst, svd, *channels, schedule)
        assert len(tr.cos2_u) == 4
        assert evaluated == schedule.denoisers
        assert numerators == [(shrink_mp2, inst.M)] * 4

    def test_mmse_evaluated_once_per_side(self, small_instance, shrink_mp2,
                                          channels, monkeypatch):
        # each step's dmmse takes the mmse at its strength from the
        # schedule, so a 10-step run evaluates mmse only at the zero start
        inst, svd = small_instance
        schedule = optimal_se_run(shrink_mp2, *channels, 10)
        calls, real = [], ScalarChannel.mmse

        def mmse_spy(self, w):
            calls.append((self, w))
            return real(self, w)

        monkeypatch.setattr(ScalarChannel, "mmse", mmse_spy)
        tr = optimal_oamp_run(inst, svd, *channels, schedule)
        assert len(tr.cos2_u) == 10
        assert calls == [(channels[0], 0.0), (channels[1], 0.0)]

    def test_theta_zero_stays_at_side_info_floor(self, mp05):
        ch = ScalarChannel("rademacher", 0.3)
        inst = make_instance(ch, ch, mp05, 400, 800, 0.0, 3)
        sh = ShrinkageSet(mp05, 0.0)
        tr = optimal_oamp_run(inst, thin_svd(inst.Y), ch, ch,
                              optimal_se_run(sh, ch, ch, 3))
        floor = 1.0 - ch.mmse(0.0)
        for c in tr.cos2_u:
            assert c == pytest.approx(floor, abs=0.05)

    def test_permutation_equivariance(self, mp05, shrink_mp2, channels):
        inst = make_instance(*channels, mp05, 150, 300, 2.0, 7)
        svd = thin_svd(inst.Y)
        schedule = optimal_se_run(shrink_mp2, *channels, 2)
        rec, rec_p = ([RecordingChannel(ch.prior, ch.w0) for ch in channels]
                      for _ in range(2))
        optimal_oamp_run(inst, svd, *rec, schedule)
        perm = np.random.default_rng(0).permutation(inst.M)
        inst_p = make_instance(*channels, mp05, 150, 300, 2.0, 7)
        inst_p.Y = inst.Y[perm]
        inst_p.u_star = inst.u_star[perm]
        inst_p.a = inst.a[perm]
        optimal_oamp_run(inst_p, thin_svd(inst_p.Y), *rec_p, schedule)
        assert np.allclose(rec_p[0].inputs[2], rec[0].inputs[2][perm],
                           atol=1e-8)

    @pytest.mark.parametrize("law", ["mp", "beta"])
    def test_perturbation_decays_in_shipped_regime(self, law, mp05, beta_spectrum,
                                                   shrink_mp2, shrink_beta2, channels):
        """The shipped regime (theta = 2, w0 = 0.04, delta = 0.5) is stable:
        a 1e-10 perturbation of the side information ``a`` shrinks from step
        to step.  Its geometric-mean growth ||du_{t+1}|| / ||du_t|| over the
        kept steps 3..10 lies below 1, the stability line.  (At theta = 1.2 on
        MP it reads 2-4, so below theta ~ 1.5 OAMP leaves its state
        evolution at this size; ROADMAP direction 15.)  M = 1000: at M = 500
        the growth reaches 0.96 on some seeds."""
        spectrum, shrinkage = {"mp": (mp05, shrink_mp2),
                               "beta": (beta_spectrum, shrink_beta2)}[law]
        schedule = optimal_se_run(shrinkage, *channels, 10)
        steps = tuple(range(1, 11))
        for seed in range(3):
            inst = make_instance(*channels, spectrum, 1000, 2000, 2.0, seed)
            svd = thin_svd(inst.Y)
            base, moved = (RecordingChannel(channels[0].prior, channels[0].w0)
                           for _ in range(2))
            optimal_oamp_run(inst, svd, base, channels[1], schedule)
            kick = 1e-10 * np.random.default_rng(seed).standard_normal(inst.M)
            optimal_oamp_run(dataclasses.replace(inst, a=inst.a + kick), svd,
                             moved, channels[1], schedule)
            gap = [np.linalg.norm(moved.inputs[t] - base.inputs[t]) for t in steps]
            growth = (gap[9] / gap[2]) ** (1 / 7)
            assert growth < 1.0, (law, seed, growth)
