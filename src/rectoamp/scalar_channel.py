"""Scalar Gaussian-channel calculus: posterior means, the divergence-free
DMMSE transform, its output SNR and mmse functions.

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
is kappa = E[Z phi(X, C)] = sqrt(snr(w)) mmse(w), for either prior.

A ScalarChannel is one side's prior and side channel: it draws the signal and
its side information at w0 (``model.make_instance``), and gives the posterior
mean, its derivative and the mmse, all that the DMMSE transform needs of it.
"""

from __future__ import annotations

import numpy as np

# output_snr floors the mmse here, so rho = 1/m - 1/(1 - w) stays finite: it
# is capped near 1/MMSE_FLOOR (see README)
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


def _snr(w):
    return w / (1.0 - w)


class ScalarChannel:
    """Immutable prior and side channel of one signal side.

    The iterate strength w varies per iteration and is passed explicitly;
    the mmse is closed form (Gaussian prior) or a 1-D trapezoid rule
    (Rademacher prior).  A schedule evaluates it once per strength, for its
    prediction 1 - mmse, its step's ``output_snr`` and the run's ``dmmse``.
    """

    def __init__(self, prior_kind: str, w0: float):
        if prior_kind not in ("rademacher", "gaussian"):
            raise ChannelError(f"unknown prior {prior_kind!r}")
        if not 0.0 <= w0 < 1.0:
            raise ChannelError(f"side-info strength must be in [0, 1), got {w0}")
        self.prior = prior_kind
        self.w0 = float(w0)

    # -- sampling ---------------------------------------------------------------

    def sample_prior(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws of the unit-variance prior."""
        if self.prior == "rademacher":
            return rng.choice([-1.0, 1.0], size=n)
        return rng.standard_normal(n)

    def side_info(self, x_star, rng) -> np.ndarray:
        """C = sqrt(w0) x* + sqrt(1 - w0) Z with i.i.d. standard normal Z."""
        return (np.sqrt(self.w0) * x_star
                + np.sqrt(1.0 - self.w0) * rng.standard_normal(len(x_star)))

    # -- posterior mean -------------------------------------------------------

    def posterior_mean(self, x, c, w: float):
        """E[X* | X = x, C = c] for iterate strength w.

        At w = 1 the channel is noiseless; by convention the estimate passes
        the observation through (x = X* exactly in that limit).
        """
        x = np.asarray(x, dtype=float)
        if w >= 1.0:
            return x.copy()
        eta = _snr(w) / np.sqrt(w) * x if w > 0 else np.zeros_like(x)
        if self.w0 > 0:
            eta = eta + _snr(self.w0) / np.sqrt(self.w0) * np.asarray(c, dtype=float)
        if self.prior == "rademacher":
            return np.tanh(eta)
        # Gaussian prior: linear estimator with total precision 1 + snr
        return eta / (1.0 + (_snr(w) + _snr(self.w0)))

    def posterior_mean_derivative(self, phi, w: float):
        """d/dx of posterior_mean, from the posterior mean ``phi`` that the
        caller has just computed (used for empirical Onsager terms)."""
        phi = np.asarray(phi, dtype=float)
        if w >= 1.0:
            return np.ones_like(phi)
        scale = _snr(w) / np.sqrt(w) if w > 0 else 0.0
        if self.prior == "rademacher":
            return scale * (1.0 - phi ** 2)
        return np.full_like(phi, scale / (1.0 + (_snr(w) + _snr(self.w0))))

    def mmse(self, w: float) -> float:
        """E[(X* - E[X*|X, C])^2], clamped to [0, 1].  The Rademacher grid
        |z| <= 12 misses the integrand's mass near z = -sqrt(gamma) at large
        gamma, past the cap that MMSE_FLOOR puts on ``output_snr``; see
        README."""
        if w >= 1.0:
            return 0.0
        gamma = _snr(w) + _snr(self.w0)
        if self.prior == "gaussian":
            return 1.0 / (1.0 + gamma)
        err = (1.0 - np.tanh(gamma + np.sqrt(gamma) * _MMSE_Z)) ** 2
        return float(np.clip(np.dot(_MMSE_WEIGHTS, err), 0.0, 1.0))


def dmmse_coefficients(w: float, m: float):
    """(kappa, denom) of the divergence-free projection at strength w.

    kappa = E[Z phi(X, C)] = sqrt(snr(w)) m by Stein's lemma, with m the
    mmse at w (the prior's only input); the projection subtracts kappa /
    sqrt(1 - w) times the identity and renormalizes by 1 - sqrt(snr(w))
    kappa.  At w = 0 these are exactly (0.0, 1.0).
    """
    if not 0.0 <= w < 1.0:
        raise ChannelError(f"dmmse requires w in [0, 1), got {w}")
    root_snr = np.sqrt(_snr(w))
    kappa = float(root_snr * m)
    denom = 1.0 - root_snr * kappa
    if abs(denom) < 1e-12:
        raise ChannelError(
            f"degenerate channel at w={w}: divergence-free projection "
            "has vanishing normalizer (prior is effectively Gaussian)")
    return kappa, denom


def dmmse(phi, x, w: float, m: float):
    """Divergence-free posterior mean: E[d/dx] = 0 by construction.

    ``phi`` is the posterior mean at x, which the caller has just computed
    (it is also its estimate), and m the mmse at w, the prior's only other
    input.  At w = 0 the coefficients are (0, 1), so the estimator is the
    posterior mean on side information alone (no divergence to cancel).
    """
    kappa, denom = dmmse_coefficients(w, m)
    return (phi - kappa / np.sqrt(1.0 - w) * np.asarray(x, dtype=float)) / denom


def output_snr(w: float, m: float) -> float:
    """rho = 1/m - 1/(1 - w), the output SNR of the divergence-free denoiser
    at strength w from the mmse m at w, exact for any prior.  m is floored
    at MMSE_FLOOR, so rho is capped near 1/MMSE_FLOOR; see README."""
    m = max(m, MMSE_FLOOR)
    if m >= 1.0 - 1e-15:
        raise ChannelError(f"dmmse output SNR undefined at w={w} (mmse={m})")
    rho = 1.0 / m - 1.0 / (1.0 - w)
    if rho <= 0.0:
        raise ChannelError(f"dmmse output carries no signal at w={w}")
    return rho
