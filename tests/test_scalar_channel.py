"""Scalar channel calculus: posterior means, DMMSE, mmse, and their channel
expectations against dense quadrature."""

import numpy as np
import pytest

from rectoamp.scalar_channel import ChannelError, ScalarChannel, dmmse, dmmse_coefficients

from conftest import dense_channel_mean, dense_dmmse_divergence
from general_se import dmmse_stats


def dense_mmse(w, w0):
    """Rademacher mmse E[(1 - tanh(eta))^2] given X* = 1, by a 2001 x 2001
    trapezoid rule over (Z, Z') on [-12, 12]^2 (within 3e-16 of mpmath)."""
    z = np.linspace(-12.0, 12.0, 2001)
    pdf = np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi)
    snr, snr0 = w / (1 - w), w0 / (1 - w0)
    eta_x = snr / np.sqrt(w) * (np.sqrt(w) + np.sqrt(1 - w) * z)
    eta_c = (snr0 / np.sqrt(w0) * (np.sqrt(w0) + np.sqrt(1 - w0) * z)
             if w0 > 0 else np.zeros_like(z))
    rows = [np.trapezoid((1 - np.tanh(eta_x + e)) ** 2 * pdf, z) for e in eta_c]
    return np.trapezoid(np.array(rows) * pdf, z)


class TestPosteriorMean:
    def test_rademacher_closed_form(self):
        ch, c = ScalarChannel("rademacher", 0.0), np.zeros(1)
        assert ch.posterior_mean(np.array([0.0]), c, 0.3)[0] == 0.0
        assert ch.posterior_mean(np.array([1.0]), c, 0.5)[0] == pytest.approx(
            np.tanh(np.sqrt(2.0)))

    def test_gaussian_linear(self):
        ch = ScalarChannel("gaussian", 0.0)
        assert ch.posterior_mean(np.array([2.0]), np.zeros(1), 0.25)[0] == pytest.approx(1.0)

    def test_perfect_channel_passthrough(self):
        ch = ScalarChannel("rademacher", 0.0)
        x = np.array([0.7, -1.0])
        assert np.array_equal(ch.posterior_mean(x, np.zeros(2), 1.0), x)

    def test_side_info_only(self):
        ch = ScalarChannel("rademacher", 0.04)
        c = np.array([0.5])
        expect = np.tanh(np.sqrt(0.04) / 0.96 * 0.5)
        assert ch.posterior_mean(np.zeros(1), c, 0.0)[0] == pytest.approx(expect)

    def test_derivative_matches_fd(self):
        rng = np.random.default_rng(0)
        for kind in ("rademacher", "gaussian"):
            ch = ScalarChannel(kind, 0.1)
            x = rng.normal(size=20)
            c = rng.normal(size=20)
            h = 1e-6
            fd = (ch.posterior_mean(x + h, c, 0.4)
                  - ch.posterior_mean(x - h, c, 0.4)) / (2 * h)
            assert np.allclose(ch.posterior_mean_derivative(
                ch.posterior_mean(x, c, 0.4), 0.4), fd, atol=1e-6)


class TestMmse:
    def test_boundaries(self):
        ch = ScalarChannel("rademacher", 0.0)
        assert ch.mmse(0.0) == pytest.approx(1.0)
        assert ch.mmse(1.0) == 0.0

    def test_monotone(self):
        ch = ScalarChannel("rademacher", 0.04)
        grid = np.linspace(0.0, 0.98, 50)
        vals = [ch.mmse(w) for w in grid]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rademacher_against_oracle(self):
        # 1 - E[tanh^2(snr + sqrt(snr) Z)] by dense trapezoid
        ch = ScalarChannel("rademacher", 0.0)
        w = 0.5
        snr = w / (1 - w)
        z = np.linspace(-12, 12, 100001)
        pdf = np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi)
        oracle = 1 - np.trapezoid(np.tanh(snr + np.sqrt(snr) * z) * pdf, z)
        assert ch.mmse(w) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("w0", [0.0, 0.04, 0.5])
    @pytest.mark.parametrize("w", [0.3, 0.8, 0.92, 0.97])
    def test_rademacher_against_dense_oracle(self, w, w0):
        # the former 201 x 201 Gauss-Hermite product rule was off by 2.2e-8
        # at w = 0.92, w0 = 0.04 (against mpmath); the 1-D rule is exact here
        assert ScalarChannel("rademacher", w0).mmse(w) == pytest.approx(
            dense_mmse(w, w0), abs=1e-12)

    def test_gaussian_closed_form(self):
        ch = ScalarChannel("gaussian", 0.2)
        w = 0.3
        gamma = w / (1 - w) + 0.2 / 0.8
        assert ch.mmse(w) == pytest.approx(1 / (1 + gamma))


class TestDmmse:
    @pytest.mark.parametrize("w", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_divergence_free_stein(self, w):
        # E[phi_bar'] = E[Z phi_bar] / sqrt(1-w) = 0 by construction, averaged
        # over both signs of X* rather than read off the X* = 1 half
        for w0 in (0.0, 0.04):
            ch = ScalarChannel("rademacher", w0)
            m = ch.mmse(w)
            stein = dense_channel_mean(
                ch, w, lambda xs, z, x, c: z * dmmse(ch.posterior_mean(x, c, w), x, w, m)
            ) / np.sqrt(1 - w)
            assert abs(stein) <= 1e-12

    @pytest.mark.parametrize("w0", [0.0, 0.04])
    @pytest.mark.parametrize("w", [0.3, 0.9])
    def test_divergence_free_dense_oracle(self, w, w0):
        # the X* = 1 half alone: dmmse is odd in (X, C), so it is zero too
        ch = ScalarChannel("rademacher", w0)
        assert abs(dense_dmmse_divergence(ch, w)) <= 1e-12

    def test_gaussian_prior_degenerate(self):
        # with no side information the linear posterior mean projects to zero,
        # so the divergence-free output carries no signal
        ch = ScalarChannel("gaussian", 0.0)
        x, c = np.array([1.0, -2.0]), np.zeros(2)
        assert np.allclose(dmmse(ch.posterior_mean(x, c, 0.5), x, 0.5, ch.mmse(0.5)), 0.0,
                           atol=1e-12)
        with pytest.raises(ChannelError):
            dmmse_stats(ch, 0.5)

    def test_kappa_against_oracle(self):
        # E[Z tanh(...)] by dense trapezoid over (X*, Z)
        ch = ScalarChannel("rademacher", 0.0)
        w = 0.5
        snr = w / (1 - w)
        z = np.linspace(-12, 12, 100001)
        pdf = np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi)
        oracle = 0.0
        for xs in (1.0, -1.0):
            x = np.sqrt(w) * xs + np.sqrt(1 - w) * z
            oracle += 0.5 * np.trapezoid(
                z * np.tanh(snr / np.sqrt(w) * x) * pdf, z)
        kappa, _ = dmmse_coefficients(w, ch.mmse(w))
        assert kappa == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_kappa_stein_identity(self, kind):
        # kappa = sqrt(snr) mmse is Stein's E[Z phi(X, C)], taken from the
        # posterior mean: by dense quadrature for Rademacher, and for the
        # Gaussian prior, whose phi is linear, as sqrt(1 - w) d(phi)/dx
        ch = ScalarChannel(kind, 0.04)
        for w in (0.1, 0.5, 0.9):
            kappa, denom = dmmse_coefficients(w, ch.mmse(w))
            if kind == "rademacher":
                stein = dense_channel_mean(
                    ch, w, lambda xs, z, x, c: z * ch.posterior_mean(x, c, w))
            else:
                phi = ch.posterior_mean(np.array([1.0, 0.0]), np.zeros(2), w)
                stein = np.sqrt(1 - w) * (phi[0] - phi[1])
            assert kappa == pytest.approx(stein, rel=1e-12)
            assert denom == 1 - np.sqrt(w / (1 - w)) * kappa

    @pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
    def test_kappa_against_dense_oracle(self, w):
        # E[Z tanh(...)] by dense trapezoid, as in test_kappa_against_oracle
        snr = w / (1 - w)
        z = np.linspace(-12, 12, 100001)
        pdf = np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi)
        oracle = sum(0.5 * np.trapezoid(
            z * np.tanh(snr / np.sqrt(w) * (np.sqrt(w) * xs + np.sqrt(1 - w) * z)) * pdf, z)
            for xs in (1.0, -1.0))
        kappa, _ = dmmse_coefficients(w, ScalarChannel("rademacher", 0.0).mmse(w))
        assert kappa == pytest.approx(oracle, abs=1e-12)

    def test_stats_match_quadrature(self):
        ch = ScalarChannel("rademacher", 0.04)
        for w in (0.2, 0.6):
            alpha, sigma2, rho = dmmse_stats(ch, w)
            m = ch.mmse(w)
            aq = dense_channel_mean(
                ch, w, lambda xs, z, x, c: xs * dmmse(ch.posterior_mean(x, c, w), x, w, m))
            second = dense_channel_mean(
                ch, w, lambda xs, z, x, c: dmmse(ch.posterior_mean(x, c, w), x, w, m) ** 2)
            assert alpha == pytest.approx(aq, abs=1e-8)
            assert sigma2 == pytest.approx(second - aq ** 2, abs=1e-8)
            assert rho == pytest.approx(alpha ** 2 / sigma2, rel=1e-6)

    def test_w_zero_uses_side_info(self):
        ch = ScalarChannel("rademacher", 0.04)
        x = np.array([0.3, -1.2])
        c = np.array([0.5, -0.5])
        expect = np.tanh(np.sqrt(0.04) / 0.96 * c)
        assert np.allclose(dmmse(ch.posterior_mean(x, c, 0.0), x, 0.0, ch.mmse(0.0)), expect)


class TestChannelStats:
    def test_posterior_mean_identity(self):
        # E[X* phi] = E[phi^2] = 1 - mmse
        ch = ScalarChannel("rademacher", 0.04)
        w = 0.4
        alpha = dense_channel_mean(
            ch, w, lambda xs, z, x, c: xs * ch.posterior_mean(x, c, w))
        second = dense_channel_mean(
            ch, w, lambda xs, z, x, c: ch.posterior_mean(x, c, w) ** 2)
        assert alpha == pytest.approx(second, abs=1e-10)
        assert alpha == pytest.approx(1 - ch.mmse(w), abs=1e-10)


def test_invalid_construction():
    with pytest.raises(ChannelError):
        ScalarChannel("bernoulli", 0.0)
    with pytest.raises(ChannelError):
        ScalarChannel("rademacher", w0=1.0)
