"""Instance generation, RNG streams, SVD cache, and empirical measures."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectoamp.model import (ModelError, _add_spike, _haar_columns,
                            component_rng, make_instance, sample_gaussian_noise,
                            sample_ri_noise, thin_svd)
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShiftedBeta

from empirical_measures import signal_moments

FALLBACK_LOG = "direct SVD"


def traced(fn, *args):
    """(fn(*args), bytes still traced after it returns, traced peak)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained - before, peak - before


def assert_thin_svd_invariants(Y, svd):
    """Descending singular values, orthonormal factors, U diag(sigma) V^T = Y
    and the singular values of ``np.linalg.svd`` to 1e-10 relative."""
    M, N = Y.shape
    sv = svd.singular_values
    assert sv.shape == (M,) and svd.U.shape == (M, M) and svd.V.shape == (N, M)
    assert np.all(np.isfinite(sv)) and np.all(np.isfinite(svd.U))
    assert np.all(np.isfinite(svd.V))
    assert np.all(np.diff(sv) <= 0)
    ref = np.linalg.svd(Y, compute_uv=False)
    assert np.all(np.abs(sv - ref) <= 1e-10 * ref + 1e-14 * max(ref[0], 1.0))
    assert np.max(np.abs(svd.U.T @ svd.U - np.eye(M))) <= 1e-12
    assert np.max(np.abs(svd.V.T @ svd.V - np.eye(M))) <= 1e-9
    assert np.allclose((svd.U * sv) @ svd.V.T, Y, rtol=0, atol=1e-10)


class TestRng:
    def test_reproducible(self):
        a = component_rng(7, "noise").standard_normal(5)
        b = component_rng(7, "noise").standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = component_rng(7, "u").standard_normal(5)
        b = component_rng(7, "v").standard_normal(5)
        assert not np.allclose(a, b)

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            component_rng(7, "bogus")


class TestPriors:
    def test_rademacher_values(self):
        x = ScalarChannel("rademacher", 0.0).sample_prior(1000, component_rng(0, "u"))
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_gaussian_moments(self):
        x = ScalarChannel("gaussian", 0.0).sample_prior(200000, component_rng(0, "u"))
        assert np.mean(x) == pytest.approx(0.0, abs=0.02)
        assert np.var(x) == pytest.approx(1.0, abs=0.02)


class TestNoise:
    def test_haar_orthogonal(self):
        q = _haar_columns(50, 50, component_rng(3, "noise"))
        assert np.allclose(q @ q.T, np.eye(50), atol=1e-12)

    def test_ri_noise_spectrum(self, beta_spectrum):
        w = sample_ri_noise(beta_spectrum, 300, 600, component_rng(1, "noise"))
        lam = np.linalg.eigvalsh(w @ w.T)
        # first two moments of Beta(1.5, 1.5) on [1, 3]: 2 and 4 + 1/4
        assert np.mean(lam) == pytest.approx(2.0, abs=0.1)
        assert np.mean(lam ** 2) == pytest.approx(4.25, abs=0.2)

    @staticmethod
    def householder_draw(spectrum, M, N, seed):
        """(U sigma, V) from the noise stream, V by the sign-corrected
        Householder QR, in the order sample_ri_noise draws them."""
        rng = component_rng(seed, "noise")
        sigma = np.sqrt(spectrum.sample_eigenvalues(M, rng))
        U = _haar_columns(M, M, rng)
        return U * sigma, _haar_columns(N, M, rng)

    @pytest.mark.parametrize("M,N", [(300, 600), (200, 400)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cholesky_draw_matches_householder(self, beta_spectrum, M, N, seed):
        w = sample_ri_noise(beta_spectrum, M, N, component_rng(seed, "noise"))
        U_sigma, V = self.householder_draw(beta_spectrum, M, N, seed)
        ref = U_sigma @ V.T
        assert np.linalg.norm(w - ref) <= 1e-13 * np.linalg.norm(ref)
        sigma2 = np.sort(np.sum(U_sigma ** 2, axis=0))
        lam = np.linalg.eigvalsh(w @ w.T)
        assert np.max(np.abs(lam - sigma2)) <= 1e-12 * sigma2[-1]

    @pytest.mark.parametrize("M,N,ulps", [(400, 800, 0), (333, 1001, 8)])
    def test_cholesky_draw_matches_whole_product(self, M, N, ulps):
        """W^T formed in G's buffer by row blocks against the whole product
        solve(L^T, (U sigma)^T)^T @ G^T from the same substream: the same
        bits at 400 x 800, and within a few eps * max|W| where the BLAS
        takes other kernels for the blocks."""
        spectrum = ShiftedBeta(1.5, 1.5, 1.0, 3.0, M / N)
        w = sample_ri_noise(spectrum, M, N, component_rng(5, "noise"))
        rng = component_rng(5, "noise")
        sigma = np.sqrt(spectrum.sample_eigenvalues(M, rng))
        U_sigma = _haar_columns(M, M, rng) * sigma
        G = rng.standard_normal((N, M))
        L = np.linalg.cholesky(G.T @ G)
        ref = np.linalg.solve(L.T, U_sigma.T).T @ G.T
        assert w.flags.f_contiguous
        if ulps == 0:
            assert np.array_equal(w, ref)
        else:
            eps = np.finfo(float).eps
            assert np.max(np.abs(w - ref)) <= ulps * eps * np.max(np.abs(ref))

    def test_cholesky_draw_holds_one_array(self, beta_spectrum):
        """The draw's traced peak stays under 2.75 M x N arrays (forming
        Z G^T as a second array next to U sigma, L, G and Z took 3.5), only
        W is kept, and W is the transpose of G's N x M buffer."""
        M, N = 400, 800
        sample_ri_noise(beta_spectrum, M, N, component_rng(0, "noise"))  # warm up
        w, retained, peak = traced(sample_ri_noise, beta_spectrum, M, N,
                                   component_rng(1, "noise"))
        array = M * N * 8
        assert peak / array < 2.75
        assert retained / array <= 1.1
        assert w.base is not None and w.base.shape == (N, M)

    def test_square_draw_unchanged(self, beta_spectrum):
        w = sample_ri_noise(beta_spectrum, 120, 120, component_rng(4, "noise"))
        U_sigma, V = self.householder_draw(beta_spectrum, 120, 120, 4)
        assert np.array_equal(w, U_sigma @ V.T)

    def test_cholesky_failure_is_model_error(self, beta_spectrum, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", fails)
        with pytest.raises(ModelError, match="Cholesky"):
            sample_ri_noise(beta_spectrum, 20, 40, component_rng(0, "noise"))

    def test_ri_noise_rejects_tall(self, beta_spectrum):
        with pytest.raises(ModelError):
            sample_ri_noise(beta_spectrum, 10, 5, component_rng(0, "noise"))


class TestInstances:
    def test_shapes_and_side_info(self, mp05):
        side = ScalarChannel("rademacher", 0.25)
        inst = make_instance(side, side, mp05, 400, 800, 2.0, 11)
        assert inst.Y.shape == (400, 800)
        assert inst.delta == 0.5
        # side channel a = sqrt(w0) u* + sqrt(1-w0) z
        corr = (inst.a @ inst.u_star) ** 2 / (
            (inst.a @ inst.a) * (inst.u_star @ inst.u_star))
        assert corr == pytest.approx(0.25, abs=0.08)

    def test_signal_scaling(self, mp05):
        side = ScalarChannel("rademacher", 0.0)
        inst = make_instance(side, side, mp05, 400, 800, 3.0, 5)
        # spectral norm of the spike is theta for unit-RMS factors
        spike = inst.Y - sample_gaussian_noise(400, 800, component_rng(5, "noise"))
        assert np.linalg.norm(spike, 2) == pytest.approx(3.0, rel=1e-10)

    @staticmethod
    def noise_model(kind):
        if kind == "gaussian":
            return MarchenkoPastur(0.5)
        return ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5)

    @staticmethod
    def draw_noise(spectrum, M, N, rng):
        """W as make_instance draws it from the noise stream ``rng``."""
        if isinstance(spectrum, MarchenkoPastur):
            return sample_gaussian_noise(M, N, rng)
        return sample_ri_noise(spectrum, M, N, rng)

    @pytest.mark.parametrize("kind", ["gaussian", "beta_ri"])
    def test_observation_bits(self, kind):
        """Y has the bits of c outer(u*, v*) + W formed whole, and the derived
        W is the drawn noise to rounding."""
        M, N, theta, seed = 400, 800, 2.0, 3
        noise = self.noise_model(kind)
        side = ScalarChannel("rademacher", 0.04)
        inst = make_instance(side, side, noise, M, N, theta, seed)
        W = self.draw_noise(noise, M, N, component_rng(seed, "noise"))
        assert np.array_equal(
            inst.Y, np.outer(inst.u_star, inst.v_star) * (theta / np.sqrt(M * N)) + W)
        assert np.max(np.abs(inst.W - W)) <= 1e-15

    @pytest.mark.parametrize("kind", ["gaussian", "beta_ri"])
    def test_one_array_per_instance(self, kind):
        """make_instance keeps one M x N array, and forming Y raises the
        traced peak of the noise draw by less than half an array (one
        128-row block of the spike at M = 400 is 0.32)."""
        M, N, seed = 400, 800, 1
        noise = self.noise_model(kind)
        side = ScalarChannel("rademacher", 0.04)
        make_instance(side, side, noise, M, N, 2.0, 0)  # warm any lazy state
        array = M * N * 8
        _, _, draw_peak = traced(self.draw_noise, noise, M, N,
                                 component_rng(seed, "noise"))
        inst, retained, peak = traced(make_instance, side, side, noise,
                                      M, N, 2.0, seed)
        assert inst.Y.nbytes == array
        assert retained / array <= 1.1
        assert (peak - draw_peak) / array < 0.5

    def test_spike_on_fortran_order(self):
        """A Fortran-ordered Y takes the spike through Y^T with the bits of
        its C-ordered copy."""
        rng = component_rng(2, "noise")
        u, v = rng.standard_normal(300), rng.standard_normal(700)
        Y_f = np.asfortranarray(rng.standard_normal((300, 700)))
        Y_c = np.ascontiguousarray(Y_f)
        _add_spike(Y_f, u, v, 0.37)
        _add_spike(Y_c, u, v, 0.37)
        assert Y_f.flags.f_contiguous
        assert np.array_equal(Y_f, Y_c)

    def test_invalid_dimensions(self, mp05):
        side = ScalarChannel("rademacher", 0.0)
        with pytest.raises(ModelError):
            make_instance(side, side, mp05, 800, 400, 1.0, 0)


class TestSvdAndMeasures:
    def test_thin_svd_reconstructs(self, mp05):
        side = ScalarChannel("rademacher", 0.0)
        inst = make_instance(side, side, mp05, 100, 200, 1.0, 2)
        svd = thin_svd(inst.Y)
        recon = (svd.U * svd.singular_values) @ svd.V.T
        assert np.allclose(recon, inst.Y, atol=1e-10)
        assert np.all(np.diff(svd.singular_values) <= 0)

    # seed 1 at M = N = 1000 has lambda_min / lambda_max = 1.3e-8, just above
    # the fallback floor: the Gram path at its least accurate
    @pytest.mark.parametrize("kind,M,N", [
        ("mp", 400, 800), ("mp", 1000, 1000),
        ("beta", 400, 800), ("beta", 400, 400)],
        ids=["mp_0.5", "mp_1", "beta_ri_0.5", "beta_ri_1"])
    @pytest.mark.filterwarnings("error")
    def test_gram_path_accuracy(self, caplog, kind, M, N):
        spectrum = (MarchenkoPastur(M / N) if kind == "mp"
                    else ShiftedBeta(1.5, 1.5, 1.0, 3.0, M / N))
        side = ScalarChannel("rademacher", 0.04)
        inst = make_instance(side, side, spectrum, M, N, 2.0, 1)
        with caplog.at_level("INFO", logger="rectoamp.model"):
            svd = thin_svd(inst.Y)
        assert FALLBACK_LOG not in caplog.text
        assert_thin_svd_invariants(inst.Y, svd)

    @pytest.mark.parametrize("M,N,zero_row", [(30, 60, 7), (20, 40, None)],
                             ids=["zero_row", "zero_matrix"])
    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_falls_back(self, caplog, M, N, zero_row):
        if zero_row is None:
            Y = np.zeros((M, N))
        else:
            Y = component_rng(3, "noise").standard_normal((M, N)) / np.sqrt(N)
            Y[zero_row] = 0.0
        with caplog.at_level("INFO", logger="rectoamp.model"):
            svd = thin_svd(Y)
        notices = [r for r in caplog.records if FALLBACK_LOG in r.getMessage()]
        assert len(notices) == 1 and notices[0].levelname == "INFO"
        assert_thin_svd_invariants(Y, svd)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 60), m_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_thin_svd_property(self, N, m_frac, seed):
        M = max(1, round(m_frac * N))
        Y = component_rng(seed, "noise").standard_normal((M, N))
        assert_thin_svd_invariants(Y, thin_svd(Y))

    @pytest.mark.parametrize("kind", ["mp", "beta"])
    def test_signal_moments_match_eigenpairs(self, kind):
        # the quadratic forms in Y against the eigenpair sums of the
        # signal-weighted measures, from eigh(Y Y^T) and v_i = Y^T u_i / sigma_i
        spectrum = (MarchenkoPastur(0.5) if kind == "mp"
                    else ShiftedBeta(1.5, 1.5, 1.0, 3.0, 0.5))
        side = ScalarChannel("rademacher", 0.0)
        inst = make_instance(side, side, spectrum, 200, 400, 2.0, 4)
        mom_nu1, mom_nu2, zero_mass = signal_moments(inst)
        lam, U = np.linalg.eigh(inst.Y @ inst.Y.T)
        w1 = (U.T @ inst.u_star) ** 2 / inst.M
        w2 = (U.T @ (inst.Y @ inst.v_star)) ** 2 / lam / inst.N
        null = (inst.v_star @ inst.v_star) / inst.N - w2.sum()
        powers = lam[None, :] ** np.arange(4)[:, None]
        np.testing.assert_allclose(mom_nu1, powers @ w1, rtol=1e-12)
        np.testing.assert_allclose(mom_nu2, powers @ w2 + [null, 0, 0, 0], rtol=1e-12)
        assert zero_mass == pytest.approx(null, rel=1e-12)
        # |u*|^2 / M = |v*|^2 / N = 1 for Rademacher signals
        assert mom_nu1[0] == pytest.approx(1.0, abs=1e-12)
        assert mom_nu2[0] == pytest.approx(1.0, abs=1e-12)
        assert zero_mass >= 0.0
