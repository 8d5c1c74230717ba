"""Synthetic problem instances: signals, side information, noise, observation.

Instances follow Y = (theta / sqrt(M N)) u* v*^T + W, where the noise
spectrum decides the draw of W: i.i.d. Gaussian entries of variance 1/N for
the Marchenko-Pastur law, rotationally invariant (RI) noise (Haar factors,
singular values drawn from the spectrum) for any other.  Reproducibility uses
a counter-based generator with one substream per (seed, component).  A seed
holds one M x N array: an RI draw forms W^T in its Gaussian factor's buffer,
Y is formed in the noise's buffer, and ``ProblemInstance.W`` is derived from
Y on access.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .scalar_channel import ScalarChannel
from .spectra import MarchenkoPastur, SpectrumModel

logger = logging.getLogger(__name__)

# substream labels for the counter-based RNG
_STREAMS = {"u": 0, "v": 1, "noise": 2, "side_u": 3, "side_v": 4}


class ModelError(Exception):
    pass


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Philox substream keyed by (seed, component)."""
    return np.random.Generator(np.random.Philox(key=[seed, _STREAMS[component]]))


@dataclass
class ProblemInstance:
    """One draw of Y = c u* v*^T + W, c = theta / sqrt(M N), with the side
    information a, b.  Neither the noise nor the seed is stored: ``W`` is
    derived from Y, and whoever draws an instance keys it by its seed.
    ``Y`` may be Fortran-ordered (RI noise with N >= CHOLESKY_ASPECT * M);
    every reader is layout-agnostic."""

    M: int
    N: int
    theta: float
    Y: np.ndarray
    u_star: np.ndarray
    v_star: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def delta(self) -> float:
        return self.M / self.N

    @property
    def W(self) -> np.ndarray:
        """The noise, Y - c u* v*^T: equal to the drawn W to rounding, and a
        new M x N array on every access.  Only the benchmark's byte counter
        reads it; it goes once that stops."""
        W = np.outer(self.u_star, self.v_star)
        W *= -self.theta / np.sqrt(self.M * self.N)
        W += self.Y
        return W


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


def _haar_columns(n: int, k: int, rng, scratch=None) -> np.ndarray:
    """First k columns of a Haar orthogonal n x n matrix (all of it for
    k = n), via sign-corrected QR.  The Gaussian is drawn into ``scratch``,
    an n x k buffer, when one is given."""
    q, r = np.linalg.qr(rng.standard_normal((n, k), out=scratch))
    return q * np.sign(np.diag(r))


# sample_ri_noise reaches V through a Cholesky factor only when N >= this * M:
# nearer square, its kappa(G)^2 eps error has no bound
CHOLESKY_ASPECT = 2
# rows of W^T that sample_ri_noise forms at a time in one reused buffer: each
# product packs all of Z, so few blocks (512 x 1000 float64 is 4 MB)
_GEMM_BLOCK_ROWS = 512


def sample_ri_noise(spectrum: SpectrumModel, M: int, N: int, rng) -> np.ndarray:
    """W = U diag(sigma) V^T with independent Haar factors.

    Squared singular values are drawn i.i.d. by the spectrum's
    ``sample_eigenvalues`` (``ShiftedBeta`` has one), then U, then
    the N x M Gaussian G behind V, in that order.  V is the Q of G = V R with
    a positive-diagonal R.  When N >= CHOLESKY_ASPECT * M, R is L^T from the
    Cholesky factor L of G^T G, and W = (U diag(sigma) L^-1) G^T is formed
    without V: W^T = G Z^T, Z = U diag(sigma) L^-1, overwrites G's rows in
    blocks, so the draw holds one M x N array and returns W as a
    Fortran-ordered view.  Its loss of orthogonality is about kappa(G)^2
    eps; with M / N <= 1/2, Bai-Yin puts kappa(G) near
    (1 + sqrt(1/2)) / (1 - sqrt(1/2)) = 5.8, so V agrees with the
    Householder factor to a few eps (3.3e-16 at 1000 x 2000).  Near-square G makes kappa(G)^2 unbounded, so those
    instances keep the sign-corrected Householder QR of ``_haar_columns``.
    """
    if M > N:
        raise ModelError("aspect ratios above 1 are unsupported (need M <= N)")
    # G's buffer, which becomes W^T, is allocated before U's QR, so that it
    # can take the hole the previous seed's Y left; U's Gaussian is drawn
    # into its head, which the draw of G then overwrites
    G = np.empty((N, M)) if N >= CHOLESKY_ASPECT * M else None
    head = None if G is None else G.reshape(-1)[:M * M].reshape(M, M)
    sigma = np.sqrt(spectrum.sample_eigenvalues(M, rng))
    U_sigma = _haar_columns(M, M, rng, head)
    U_sigma *= sigma
    if G is None:
        return U_sigma @ _haar_columns(N, M, rng).T
    rng.standard_normal(out=G)
    try:
        L = np.linalg.cholesky(G.T @ G)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"Cholesky of the Haar Gram matrix failed: {exc}") from exc
    Z = np.linalg.solve(L.T, U_sigma.T).T
    del U_sigma, L
    block = np.empty((min(_GEMM_BLOCK_ROWS, N), M))
    for i in range(0, N, _GEMM_BLOCK_ROWS):
        rows = G[i:i + _GEMM_BLOCK_ROWS]
        rows[...] = np.matmul(rows, Z.T, out=block[:len(rows)])
    return G.T


def sample_gaussian_noise(M: int, N: int, rng) -> np.ndarray:
    if M > N:
        raise ModelError("aspect ratios above 1 are unsupported (need M <= N)")
    W = rng.standard_normal((M, N))
    W /= np.sqrt(N)
    return W


def make_instance(channel_u: ScalarChannel, channel_v: ScalarChannel,
                  spectrum: SpectrumModel, M: int, N: int, theta: float,
                  seed: int) -> ProblemInstance:
    """Assemble a problem instance.

    Each signal side and its side information are drawn by the side's
    channel (``ScalarChannel.sample_prior`` and ``side_info``), each from
    its own substream.  The noise has the law ``spectrum``: i.i.d. Gaussian
    entries for ``MarchenkoPastur``, the rotationally invariant ensemble
    with that spectrum, and ``sample_ri_noise`` for any other law.
    """
    if M <= 0 or N <= 0 or M > N:
        raise ModelError(f"invalid dimensions M={M}, N={N}")
    u_star = channel_u.sample_prior(M, component_rng(seed, "u"))
    v_star = channel_v.sample_prior(N, component_rng(seed, "v"))
    noise_rng = component_rng(seed, "noise")
    if isinstance(spectrum, MarchenkoPastur):
        W = sample_gaussian_noise(M, N, noise_rng)
    else:
        W = sample_ri_noise(spectrum, M, N, noise_rng)
    a = channel_u.side_info(u_star, component_rng(seed, "side_u"))
    b = channel_v.side_info(v_star, component_rng(seed, "side_v"))
    Y = W  # the spike is added in the noise's buffer
    _add_spike(Y, u_star, v_star, theta / np.sqrt(M * N))
    return ProblemInstance(M, N, theta, Y, u_star, v_star, a, b)


# rows of the spike formed at a time: 128 x N float64 is 2 MB at N = 2000
_SPIKE_BLOCK_ROWS = 128


def _add_spike(Y: np.ndarray, u_star, v_star, scale: float) -> None:
    """Y += scale * outer(u*, v*) in place, one row block at a time in one
    reused buffer.  Each entry is fl(Y + fl(fl(u_i v_j) scale)), the bits of
    forming the whole spike first.  A Y that is not C-ordered (the RI draw's
    W is Fortran-ordered) takes the spike through Y^T in blocks of v*, with
    the same bits, since u_i v_j = v_j u_i."""
    if not Y.flags.c_contiguous:
        Y, u_star, v_star = Y.T, v_star, u_star
    block = np.empty((min(_SPIKE_BLOCK_ROWS, len(u_star)), len(v_star)))
    for i in range(0, len(u_star), _SPIKE_BLOCK_ROWS):
        rows = u_star[i:i + _SPIKE_BLOCK_ROWS]
        spike = np.outer(rows, v_star, out=block[:len(rows)])
        spike *= scale
        Y[i:i + len(rows)] += spike


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
