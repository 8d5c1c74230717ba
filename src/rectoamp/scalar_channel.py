"""Scalar Gaussian-channel calculus: posterior means, the divergence-free
DMMSE transform, mmse functions, and channel-output statistics.

The channel is X = sqrt(w) X* + sqrt(1 - w) Z with unit-variance prior X*.
Side information, when present, is an independent observation of the same
signal, C = sqrt(w0) X* + sqrt(1 - w0) Z', and every estimator conditions on
the pair (X, C).  With w0 = 0 all formulas reduce to the plain single-channel
expressions.
"""

from __future__ import annotations

import numpy as np

GH_NODES = 201


class ChannelError(Exception):
    pass


def _gauss_hermite(n: int):
    """Probabilists' Gauss-Hermite rule: E[f(Z)] ~ sum w_i f(x_i), Z ~ N(0,1)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def _snr(w):
    return w / (1.0 - w)


class ScalarChannel:
    """Immutable channel calculus for one prior and one side-info strength.

    The iterate strength w varies per iteration and is passed explicitly;
    expectations are over (X*, Z, Z') with a 2-D Gauss-Hermite rule (the
    Rademacher prior is a two-point sum, the Gaussian prior is closed form).
    """

    def __init__(self, prior_kind: str, w0: float = 0.0):
        if prior_kind not in ("rademacher", "gaussian"):
            raise ChannelError(f"unknown prior {prior_kind!r}")
        if not 0.0 <= w0 < 1.0:
            raise ChannelError(f"side-info strength must be in [0, 1), got {w0}")
        self.prior = prior_kind
        self.w0 = float(w0)
        self._z, self._wz = _gauss_hermite(GH_NODES)

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
        if self.prior == "rademacher":
            xs = np.array([1.0, -1.0])
            ws = np.array([0.5, 0.5])
        else:
            xs, ws = self._z, self._wz
        z, wz = self._z, self._wz
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
        if self.prior == "gaussian":
            gamma = _snr(w) + _snr(self.w0)
            return 1.0 / (1.0 + gamma)
        xstar, x, c, weight = self._channel_samples(w)
        err = (xstar - self.posterior_mean(x, c, w)) ** 2
        return float(np.clip(np.sum(weight * err), 0.0, 1.0))

    def channel_stats(self, f, w: float):
        """(alpha, second_moment) = (E[X* f(X, C)], E[f(X, C)^2])."""
        xstar, x, c, weight = self._channel_samples(w)
        vals = f(x, c)
        return float(np.sum(weight * xstar * vals)), float(np.sum(weight * vals ** 2))

    # -- divergence-free denoiser ----------------------------------------------

    def dmmse_coefficients(self, w: float):
        """(kappa, denom) of the divergence-free projection at strength w.

        kappa = E[Z phi(X, C)] is the Gaussian sensitivity of the posterior
        mean; the projection subtracts kappa / sqrt(1 - w) times the identity
        and renormalizes by 1 - sqrt(w / (1 - w)) kappa.
        """
        if not 0.0 <= w < 1.0:
            raise ChannelError(f"dmmse requires w in [0, 1), got {w}")
        if w == 0.0:
            return 0.0, 1.0
        xstar, x, c, weight = self._channel_samples(w)
        z = (x - np.sqrt(w) * xstar) / np.sqrt(1.0 - w)
        kappa = float(np.sum(weight * z * self.posterior_mean(x, c, w)))
        denom = 1.0 - np.sqrt(w / (1.0 - w)) * kappa
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
        output SNR rho = 1/m - 1/(1 - w) exactly, for any prior.
        """
        m = self.mmse(w)
        if m <= 0.0 or m >= 1.0 - 1e-15:
            raise ChannelError(f"dmmse stats undefined at w={w} (mmse={m})")
        alpha = (1.0 - w - m) / (1.0 - w - w * m)
        rho = 1.0 / m - 1.0 / (1.0 - w)
        if rho <= 0.0:
            raise ChannelError(f"dmmse output carries no signal at w={w}")
        return alpha, alpha ** 2 / rho, rho


def mmse_inverse(channel: ScalarChannel, target: float, tol: float = 1e-13) -> float:
    """Strength w with mmse(w) = target; mmse is strictly decreasing in w.

    Targets at or below the w -> 1 limit return 1; targets at or above
    mmse(0) return 0.
    """
    lo, hi = 0.0, 1.0 - 1e-15
    if target >= channel.mmse(lo):
        return 0.0
    if target <= channel.mmse(hi):
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if channel.mmse(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
