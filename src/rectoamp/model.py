"""Synthetic problem instances: signals, side information, noise, observation.

Instances follow Y = (theta / sqrt(M N)) u* v*^T + W with either rotationally
invariant noise (Haar factors, singular values drawn from the target
spectrum) or i.i.d. Gaussian entries of variance 1/N.  Reproducibility uses a
counter-based generator with one substream per (seed, component).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    """Thin SVD of the observation, kept as what the OAMP products need.

    ``thin_svd`` builds it from ``eigh(Y Y^T)``: the eigenvalues of Y Y^T
    (descending), their eigenvectors U and a reference to Y.  The right
    factor stays implicit, V = Y^T U diag(lambda)^(-1/2), so every product
    with a function of Y^T Y goes through Y and U (see ``oamp``); the
    N - M null directions stay implicit too.  ``singular_values``
    (``sigma_i = |Y^T u_i|``) and ``V = Y^T U / sigma`` are formed on first
    use, which no run does; the direct-SVD fallback of ``thin_svd`` fills
    them at once.

    Runs take lambda_i from eigh, not |Y^T u_i|^2, into the shrinkage
    numerators, the denoisers and the (h - h(0)) / lambda scaling of
    ``oamp.apply_right``.  eigh's lambda_i carries an absolute error of
    about eps * lambda_max, so a relative error up to eps * lambda_max /
    lambda_i, at most eps / GRAM_COND_FLOOR ~ 2e-8 on the Gram path, and
    Y^T u_i u_i^T Y / lambda_i is a projection only to that accuracy.  On
    an MP delta = 1, 1000 x 1000 OAMP run with lambda_min / lambda_max =
    1.3e-8 the final iterates moved by 4.8e-12 relative against the
    |Y^T u_i| factors.
    """

    eigenvalues: np.ndarray       # length M, descending
    U: np.ndarray                 # M x M
    Y: np.ndarray                 # M x N, the factorized observation
    _right: tuple | None = field(default=None, repr=False)  # (sigma, V) once formed

    def _right_factor(self):
        if self._right is None:
            YtU = self.Y.T @ self.U
            # |Y^T u_i| keeps sigma_min to ~1e-13 relative where sqrt(lambda)
            # loses up to eps * lambda_max / lambda_min
            sv = np.linalg.norm(YtU, axis=0)
            YtU /= sv
            self._right = (sv, YtU)
        return self._right

    @property
    def singular_values(self) -> np.ndarray:
        """Singular values of Y, length M, descending."""
        return self._right_factor()[0]

    @property
    def V(self) -> np.ndarray:
        """N x M right singular vectors."""
        return self._right_factor()[1]


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
    """Thin SVD of an M x N observation, M <= N, eigenvalues descending.

    Factorizes the M x M Gram matrix: ``eigh(Y Y^T)`` gives the eigenvalues
    (each to about eps * lambda_max absolute) and U, columns in descending
    eigenvalue order; the right factor stays implicit (see ``SvdCache``).
    When ``lambda_min <= GRAM_COND_FLOOR * lambda_max`` (near-square,
    rank-deficient or zero Y) it logs the ratio at INFO and factorizes with
    the direct ``np.linalg.svd`` instead, whose eigenvalues are sigma^2.
    """
    M, N = Y.shape
    if M > N:
        raise ModelError("thin_svd expects M <= N")
    try:
        lam, U = np.linalg.eigh(Y @ Y.T)
        if lam[0] > GRAM_COND_FLOOR * lam[-1]:
            return SvdCache(lam[::-1].copy(), np.ascontiguousarray(U[:, ::-1]), Y)
        logger.info("Gram eigenvalue ratio %.3g <= %g: direct SVD",
                    lam[0] / lam[-1] if lam[-1] > 0 else 0.0, GRAM_COND_FLOOR)
        U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"SVD failed to converge: {exc}") from exc
    return SvdCache(sv ** 2, U, Y, (sv, Vt.T))
