"""Scalar Gaussian-channel calculus: posterior means, the divergence-free
DMMSE transform, mmse functions, and channel-output statistics.

The channel is X = sqrt(w) X* + sqrt(1 - w) Z with unit-variance prior X*.
Side information, when present, is an independent observation of the same
signal, C = sqrt(w0) X* + sqrt(1 - w0) Z', and every estimator conditions on
the pair (X, C).  With w0 = 0 all formulas reduce to the plain single-channel
expressions.

The pair (X, C) enters the posterior only through the total SNR
gamma = snr(w) + snr(w0), with snr(w) = w / (1 - w).  For the Rademacher
prior the posterior mean is tanh(eta) and, given X* = 1, eta ~ N(gamma,
gamma), so the mmse is the one-dimensional E[(1 - tanh(gamma + sqrt(gamma) Z))^2],
taken by a trapezoid rule in Z (spectrally accurate for this smooth Gaussian
integrand).  By Stein's lemma the Gaussian sensitivity of the posterior mean
is kappa = E[Z phi(X, C)] = sqrt(snr(w)) mmse(w), for either prior.  The 2-D
Gauss-Hermite rule over (X*, Z, Z') remains for ``channel_stats`` of an
arbitrary function.
"""

from __future__ import annotations

import functools

import numpy as np

GH_NODES = 201
# dmmse_stats floors the mmse here, so rho = 1/m - 1/(1 - w) stays finite
MMSE_FLOOR = 1e-14
# Trapezoid rule for the Rademacher mmse: step MMSE_STEP on
# [-MMSE_HALF_WIDTH, MMSE_HALF_WIDTH] (961 points); the Gaussian tail beyond
# 12 is below 1e-32.
MMSE_STEP = 0.025
MMSE_HALF_WIDTH = 12.0
_MMSE_Z = np.linspace(-MMSE_HALF_WIDTH, MMSE_HALF_WIDTH,
                      round(2 * MMSE_HALF_WIDTH / MMSE_STEP) + 1)
_MMSE_WEIGHTS = MMSE_STEP * np.exp(-0.5 * _MMSE_Z ** 2) / np.sqrt(2.0 * np.pi)


class ChannelError(Exception):
    pass


@functools.cache
def _gauss_hermite(n: int):
    """Probabilists' Gauss-Hermite rule: E[f(Z)] ~ sum w_i f(x_i), Z ~ N(0,1).

    Built on first use and shared; the arrays are read-only."""
    x, w = np.polynomial.hermite.hermgauss(n)
    x, w = x * np.sqrt(2.0), w / np.sqrt(np.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _snr(w):
    return w / (1.0 - w)


class ScalarChannel:
    """Immutable channel calculus for one prior and one side-info strength.

    The iterate strength w varies per iteration and is passed explicitly;
    the mmse is closed form (Gaussian prior) or a 1-D trapezoid rule
    (Rademacher prior); ``channel_stats`` takes expectations over
    (X*, Z, Z') with a 2-D Gauss-Hermite rule.
    """

    def __init__(self, prior_kind: str, w0: float = 0.0):
        if prior_kind not in ("rademacher", "gaussian"):
            raise ChannelError(f"unknown prior {prior_kind!r}")
        if not 0.0 <= w0 < 1.0:
            raise ChannelError(f"side-info strength must be in [0, 1), got {w0}")
        self.prior = prior_kind
        self.w0 = float(w0)

    # -- posterior mean -------------------------------------------------------

    def posterior_mean(self, x, c=None, w: float = 0.0):
        """E[X* | X = x, C = c] for iterate strength w.

        At w = 1 the channel is noiseless; by convention the estimate passes
        the observation through (x = X* exactly in that limit).
        """
        x = np.asarray(x, dtype=float)
        if w >= 1.0:
            return x.copy()
        eta = _snr(w) / np.sqrt(w) * x if w > 0 else np.zeros_like(x)
        if c is not None and self.w0 > 0:
            eta = eta + _snr(self.w0) / np.sqrt(self.w0) * np.asarray(c, dtype=float)
        if self.prior == "rademacher":
            return np.tanh(eta)
        # Gaussian prior: linear estimator with total precision 1 + snr
        gamma = _snr(w) + (_snr(self.w0) if c is not None else 0.0)
        return eta / (1.0 + gamma)

    def posterior_mean_derivative(self, x, c=None, w: float = 0.0):
        """d/dx of posterior_mean (used for empirical Onsager terms)."""
        x = np.asarray(x, dtype=float)
        if w >= 1.0:
            return np.ones_like(x)
        scale = _snr(w) / np.sqrt(w) if w > 0 else 0.0
        if self.prior == "rademacher":
            phi = self.posterior_mean(x, c, w)
            return scale * (1.0 - phi ** 2)
        gamma = _snr(w) + (_snr(self.w0) if c is not None else 0.0)
        return np.full_like(x, scale / (1.0 + gamma))

    # -- channel expectations --------------------------------------------------

    def _channel_samples(self, w: float, with_side: bool = True):
        """(x*, x, c, joint weight) arrays covering the (X*, Z, Z') law."""
        z, wz = _gauss_hermite(GH_NODES)
        if self.prior == "rademacher":
            xs = np.array([1.0, -1.0])
            ws = np.array([0.5, 0.5])
        else:
            xs, ws = z, wz
        if with_side and self.w0 > 0:
            xstar = xs[:, None, None]
            x = np.sqrt(w) * xstar + np.sqrt(1.0 - w) * z[None, :, None]
            c = np.sqrt(self.w0) * xstar + np.sqrt(1.0 - self.w0) * z[None, None, :]
            weight = ws[:, None, None] * wz[None, :, None] * wz[None, None, :]
            shape = weight.shape
            xstar = np.broadcast_to(xstar, shape)
            x = np.broadcast_to(x, shape)
            c = np.broadcast_to(c, shape)
        else:
            xstar = xs[:, None]
            x = np.sqrt(w) * xstar + np.sqrt(1.0 - w) * z[None, :]
            c = None
            weight = ws[:, None] * wz[None, :]
            xstar = np.broadcast_to(xstar, x.shape)
        return xstar, x, c, weight

    def mmse(self, w: float) -> float:
        """E[(X* - E[X*|X, C])^2], clamped to [0, 1]."""
        if w >= 1.0:
            return 0.0
        gamma = _snr(w) + _snr(self.w0)
        if self.prior == "gaussian":
            return 1.0 / (1.0 + gamma)
        err = (1.0 - np.tanh(gamma + np.sqrt(gamma) * _MMSE_Z)) ** 2
        return float(np.clip(np.dot(_MMSE_WEIGHTS, err), 0.0, 1.0))

    def channel_stats(self, f, w: float):
        """(alpha, second_moment) = (E[X* f(X, C)], E[f(X, C)^2])."""
        xstar, x, c, weight = self._channel_samples(w)
        vals = f(x, c)
        return float(np.sum(weight * xstar * vals)), float(np.sum(weight * vals ** 2))

    # -- divergence-free denoiser ----------------------------------------------

    def dmmse_coefficients(self, w: float):
        """(kappa, denom) of the divergence-free projection at strength w.

        kappa = E[Z phi(X, C)] is the Gaussian sensitivity of the posterior
        mean, sqrt(snr(w)) mmse(w) by Stein's lemma; the projection subtracts
        kappa / sqrt(1 - w) times the identity and renormalizes by
        1 - sqrt(snr(w)) kappa.
        """
        if not 0.0 <= w < 1.0:
            raise ChannelError(f"dmmse requires w in [0, 1), got {w}")
        if w == 0.0:
            return 0.0, 1.0
        root_snr = np.sqrt(_snr(w))
        kappa = float(root_snr * self.mmse(w))
        denom = 1.0 - root_snr * kappa
        if abs(denom) < 1e-12:
            raise ChannelError(
                f"degenerate channel at w={w}: divergence-free projection "
                "has vanishing normalizer (prior is effectively Gaussian)")
        return kappa, denom

    def dmmse(self, x, c=None, w: float = 0.0):
        """Divergence-free posterior mean: E[d/dx] = 0 by construction.

        Extended by continuity to w = 0, where the estimator uses side
        information only (no divergence to cancel).
        """
        x = np.asarray(x, dtype=float)
        kappa, denom = self.dmmse_coefficients(w)
        phi = self.posterior_mean(x, c, w)
        if w == 0.0:
            return phi
        return (phi - kappa / np.sqrt(1.0 - w) * x) / denom

    def dmmse_stats(self, w: float):
        """(alpha, sigma2, rho): alignment, residual variance, and output SNR
        of the divergence-free denoiser at strength w.

        Closed forms in the posterior mmse m: the divergence-free projection
        of the posterior mean has alpha = (1 - w - m) / (1 - w - w m) and
        output SNR rho = 1/m - 1/(1 - w) exactly, for any prior.  The mmse
        is floored at MMSE_FLOOR, so a channel whose quadrature mmse
        underflows to 0 keeps a finite, very large rho.
        """
        m = max(self.mmse(w), MMSE_FLOOR)
        if m >= 1.0 - 1e-15:
            raise ChannelError(f"dmmse stats undefined at w={w} (mmse={m})")
        alpha = (1.0 - w - m) / (1.0 - w - w * m)
        rho = 1.0 / m - 1.0 / (1.0 - w)
        if rho <= 0.0:
            raise ChannelError(f"dmmse output carries no signal at w={w}")
        return alpha, alpha ** 2 / rho, rho
