"""Synthetic problem instances: signals, side information, noise, observation.

Instances follow Y = (theta / sqrt(M N)) u* v*^T + W with either rotationally
invariant noise (Haar factors, singular values drawn from the target
spectrum) or i.i.d. Gaussian entries of variance 1/N.  Reproducibility uses a
counter-based generator with one substream per (seed, component).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .spectra import SpectrumModel

logger = logging.getLogger(__name__)

# substream labels for the counter-based RNG
_STREAMS = {"u": 0, "v": 1, "noise": 2, "side_u": 3, "side_v": 4}


class ModelError(Exception):
    pass


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Philox substream keyed by (seed, component)."""
    return np.random.Generator(np.random.Philox(key=[seed, _STREAMS[component]]))


@dataclass(frozen=True)
class PriorModel:
    kind: str                     # "rademacher" | "gaussian"
    side_info_strength: float = 0.0   # w0, squared cosine similarity of the side channel

    def __post_init__(self):
        if self.kind not in ("rademacher", "gaussian"):
            raise ModelError(f"unknown prior kind {self.kind!r}")
        if not 0.0 <= self.side_info_strength < 1.0:
            raise ModelError(f"side-info strength must be in [0, 1), got "
                             f"{self.side_info_strength}")

    def sample(self, n: int, rng) -> np.ndarray:
        if self.kind == "rademacher":
            return rng.choice([-1.0, 1.0], size=n)
        return rng.standard_normal(n)


@dataclass
class ProblemInstance:
    M: int
    N: int
    theta: float
    Y: np.ndarray
    W: np.ndarray
    u_star: np.ndarray
    v_star: np.ndarray
    a: np.ndarray
    b: np.ndarray
    seed: int

    @property
    def delta(self) -> float:
        return self.M / self.N


@dataclass
class SvdCache:
    """Thin SVD of the observation; the N - M null directions stay implicit.

    ``thin_svd`` builds it from ``eigh(Y Y^T)``, with ``sigma_i = |Y^T u_i|``
    and ``V = Y^T U / sigma``, or from the direct SVD when
    ``lambda_min / lambda_max <= GRAM_COND_FLOOR``.
    """

    singular_values: np.ndarray   # length M, descending
    U: np.ndarray                 # M x M
    V: np.ndarray                 # N x M

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Y Y^T."""
        return self.singular_values ** 2


@dataclass
class EmpiricalSignalMeasures:
    """Signal-weighted empirical spectral measures of the noise Gram matrix."""

    nu_M1: tuple          # (eigenvalues of YY^T, weights)
    nu_N2: tuple          # (eigenvalues of Y^T Y incl. 0, weights)
    nu_L3: tuple          # (eigenvalues of the dilation, signed weights)


def _haar_columns(n: int, k: int, rng) -> np.ndarray:
    """First k columns of a Haar orthogonal n x n matrix (all of it for
    k = n), via sign-corrected QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


# sample_ri_noise reaches V through a Cholesky factor only when N >= this * M:
# nearer square, its kappa(G)^2 eps error has no bound
CHOLESKY_ASPECT = 2


def sample_ri_noise(spectrum: SpectrumModel, M: int, N: int, rng) -> np.ndarray:
    """W = U diag(sigma) V^T with independent Haar factors.

    Squared singular values are drawn i.i.d. from the spectrum, then U, then
    the N x M Gaussian G behind V, in that order.  V is the Q of G = V R with
    a positive-diagonal R.  When N >= CHOLESKY_ASPECT * M, R is L^T from the
    Cholesky factor L of G^T G, and W = (U diag(sigma) L^-1) G^T is formed
    without V.  Its loss of orthogonality is about kappa(G)^2 eps; with
    M / N <= 1/2, Bai-Yin puts kappa(G) near (1 + sqrt(1/2)) / (1 - sqrt(1/2))
    = 5.8, so V agrees with the Householder factor to a few eps (3.3e-16 at
    1000 x 2000).  Near-square G makes kappa(G)^2 unbounded, so those
    instances keep the sign-corrected Householder QR of ``_haar_columns``.
    """
    if M > N:
        raise ModelError("aspect ratios above 1 are unsupported (need M <= N)")
    sigma = np.sqrt(spectrum.sample_eigenvalues(M, rng))
    U_sigma = _haar_columns(M, M, rng)
    U_sigma *= sigma
    if N < CHOLESKY_ASPECT * M:
        return U_sigma @ _haar_columns(N, M, rng).T
    G = rng.standard_normal((N, M))
    try:
        L = np.linalg.cholesky(G.T @ G)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"Cholesky of the Haar Gram matrix failed: {exc}") from exc
    return np.linalg.solve(L.T, U_sigma.T).T @ G.T


def sample_gaussian_noise(M: int, N: int, rng) -> np.ndarray:
    if M > N:
        raise ModelError("aspect ratios above 1 are unsupported (need M <= N)")
    W = rng.standard_normal((M, N))
    W /= np.sqrt(N)
    return W


def make_instance(prior_u: PriorModel, prior_v: PriorModel, noise, M: int, N: int,
                  theta: float, seed: int) -> ProblemInstance:
    """Assemble a problem instance.

    ``noise`` is either a SpectrumModel (rotationally invariant noise) or the
    string "gaussian".  Side information is the Gaussian channel
    a = sqrt(w0) u* + sqrt(1 - w0) z with i.i.d. standard normal z.
    """
    if M <= 0 or N <= 0 or M > N:
        raise ModelError(f"invalid dimensions M={M}, N={N}")
    u_star = prior_u.sample(M, component_rng(seed, "u"))
    v_star = prior_v.sample(N, component_rng(seed, "v"))
    noise_rng = component_rng(seed, "noise")
    if isinstance(noise, SpectrumModel):
        W = sample_ri_noise(noise, M, N, noise_rng)
    elif noise == "gaussian":
        W = sample_gaussian_noise(M, N, noise_rng)
    else:
        raise ModelError(f"unknown noise model {noise!r}")
    a = _side_info(u_star, prior_u.side_info_strength, component_rng(seed, "side_u"))
    b = _side_info(v_star, prior_v.side_info_strength, component_rng(seed, "side_v"))
    Y = np.outer(u_star, v_star)
    Y *= theta / np.sqrt(M * N)
    Y += W
    return ProblemInstance(M, N, theta, Y, W, u_star, v_star, a, b, seed)


def _side_info(x_star, w0, rng):
    return np.sqrt(w0) * x_star + np.sqrt(1.0 - w0) * rng.standard_normal(len(x_star))


# eigh(Y Y^T) squares the condition number of Y: below this ratio of the
# smallest to the largest eigenvalue, thin_svd takes the direct SVD instead
GRAM_COND_FLOOR = 1e-8


def thin_svd(Y: np.ndarray) -> SvdCache:
    """Thin SVD of an M x N observation, M <= N, singular values descending.

    Factorizes the M x M Gram matrix: ``eigh(Y Y^T)`` gives U (columns in
    descending eigenvalue order), ``sigma_i = |Y^T u_i|`` and
    ``V = Y^T U / sigma``.  When ``lambda_min <= GRAM_COND_FLOOR *
    lambda_max`` (near-square, rank-deficient or zero Y) it logs the ratio
    at INFO and returns the direct ``np.linalg.svd`` instead.
    """
    M, N = Y.shape
    if M > N:
        raise ModelError("thin_svd expects M <= N")
    try:
        lam, U = np.linalg.eigh(Y @ Y.T)
        if lam[0] > GRAM_COND_FLOOR * lam[-1]:
            U = np.ascontiguousarray(U[:, ::-1])
            YtU = Y.T @ U
            # |Y^T u_i| keeps sigma_min to ~1e-13 relative where sqrt(lambda)
            # loses up to eps * lambda_max / lambda_min
            sv = np.linalg.norm(YtU, axis=0)
            YtU /= sv
            return SvdCache(sv, U, YtU)
        logger.info("Gram eigenvalue ratio %.3g <= %g: direct SVD",
                    lam[0] / lam[-1] if lam[-1] > 0 else 0.0, GRAM_COND_FLOOR)
        U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"SVD failed to converge: {exc}") from exc
    return SvdCache(sv, U, Vt.T)


def empirical_signal_measures(inst: ProblemInstance,
                              svd: SvdCache) -> EmpiricalSignalMeasures:
    """Signal-weighted empirical spectral measures from the cached SVD.

    The dilation's eigenpairs come for free: eigenvalues +-sigma_i with
    eigenvectors (u_i, +-v_i)/sqrt(2), plus N - M null vectors supported on
    the v side (these carry zero nu_L3 weight because their u part vanishes).
    """
    M, N, L = inst.M, inst.N, inst.M + inst.N
    lam = svd.eigenvalues
    ovl_u = svd.U.T @ inst.u_star        # <u_i, u*>
    ovl_v = svd.V.T @ inst.v_star        # <v_i, v*>

    nu_m1 = (lam, ovl_u ** 2 / M)

    null_mass = (inst.v_star @ inst.v_star - ovl_v @ ovl_v) / N
    nu_n2 = (np.concatenate((lam, [0.0])),
             np.concatenate((ovl_v ** 2 / N, [null_mass])))

    prod = ovl_u * ovl_v / (2.0 * L)
    sigma = svd.singular_values
    nu_l3 = (np.concatenate((sigma, -sigma)), np.concatenate((prod, -prod)))
    return EmpiricalSignalMeasures(nu_m1, nu_n2, nu_l3)


def measure_moments(values, weights, orders=(0, 1, 2, 3)) -> np.ndarray:
    return np.array([np.dot(weights, np.asarray(values) ** k) for k in orders])
