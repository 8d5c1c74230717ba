"""Orthogonal AMP iterations with long-memory-free spectral denoisers.

The iteration alternates divergence-free scalar denoising of the current
iterates with trace-free polynomial-in-Y linear updates:

    u_t = (1/sqrt(w1_t)) [F*_t(YY^T) fbar(u_{t-1}) + Ftil*_t(YY^T) Y gbar(v_{t-1})]
    v_t = (1/sqrt(w2_t)) [G*_t(Y^T Y) gbar(v_{t-1}) + Gtil*_t(Y^T Y) Y^T fbar(u_{t-1})]

with estimates given by the posterior means at the predicted strengths.
All matrix functions act through the cached thin SVD of Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ProblemInstance, SvdCache
from .scalar_channel import ScalarChannel
from .spectra import ShrinkageSet


class OampError(Exception):
    pass


class DivergenceError(OampError):
    """Raised when an iterate leaves the finite range."""


class DenoiserSet:
    """Optimal trace-free matrix denoisers at fixed output SNRs (rho1, rho2).

    Evaluation uses a cleared-denominator form: with phi_i = n_i / den, every
    occurrence of D(lambda) is multiplied through by den(lambda)^2, so the
    removable singularities of F*, Ftil*, G*, Gtil* at spectral outliers
    (where den -> 0) evaluate exactly, without clamping:

        P*  = lambda den (rho2 n2 + delta den) / Dhat,
        Ptil* = sqrt(delta) rho2 n3 den / Dhat,
        Q*  = delta lambda den (rho1 n1 + den) / Dhat,
        Qtil* = sqrt(delta) rho1 n3 den / Dhat,
        Dhat = (rho1 n1 + den)(rho2 n2 + delta den) lambda - rho1 rho2 n3^2.
    """

    def __init__(self, shrinkage: ShrinkageSet, rho1: float, rho2: float):
        if rho1 <= 0 or rho2 <= 0:
            raise OampError(f"output SNRs must be positive, got ({rho1}, {rho2})")
        self.shrinkage = shrinkage
        self.spectrum = shrinkage.spectrum
        self.delta = shrinkage.delta
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)

        # Q* extends continuously to lambda = 0 (needed for the mu-tilde mean
        # and for the constant part of G* acting on the null space of Y^T Y).
        self.q_zero = self.delta / (rho2 * shrinkage.phi2_zero() + self.delta)

        mu = self.spectrum.measure()
        p, _, q, _ = self._pq(mu.nodes)
        self.mean_p = float(np.sum(mu.weights * p))
        self.mean_q = (self.delta * float(np.sum(mu.weights * q))
                       + (1.0 - self.delta) * self.q_zero)
        if not 0.0 < self.mean_p < 1.0 or not 0.0 < self.mean_q < 1.0:
            raise OampError(
                f"spectral means out of range: <P*> = {self.mean_p:.6g}, "
                f"<Q*> = {self.mean_q:.6g}")

    def _pq(self, lam):
        """(P*, Ptil*, Q*, Qtil*) entrywise on the nonnegative axis."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        d, r1, r2 = self.delta, self.rho1, self.rho2
        n1, n2, n3, den = self.shrinkage.numerators(lam)
        a1 = r1 * n1 + den
        a2 = r2 * n2 + d * den
        dhat = a1 * a2 * lam - r1 * r2 * n3 ** 2
        zero = lam == 0.0
        if np.any(dhat[~zero] <= 0):
            raise OampError("denoiser denominator D(lambda) is not positive "
                            "on the evaluation grid")
        safe = np.where(zero, 1.0, dhat)
        p = lam * den * a2 / safe
        ptil = np.sqrt(d) * r2 * n3 * den / safe
        q = d * lam * den * a1 / safe
        qtil = np.sqrt(d) * r1 * n3 * den / safe
        p = np.where(zero, 0.0, p)
        ptil = np.where(zero, 0.0, ptil)
        q = np.where(zero, self.q_zero, q)
        qtil = np.where(zero, 0.0, qtil)
        return p, ptil, q, qtil

    def evaluate(self, lam):
        """(F*, Ftil*, G*, Gtil*) entrywise at eigenvalues of YY^T."""
        p, ptil, q, qtil = self._pq(lam)
        c1 = 1.0 + 1.0 / self.rho1
        c2 = 1.0 + 1.0 / self.rho2
        f = c1 * (1.0 - p / self.mean_p)
        ftil = c2 * ptil / self.mean_p
        g = c2 * (1.0 - q / self.mean_q)
        gtil = c1 * qtil / self.mean_q
        return f, ftil, g, gtil

    def g_zero(self) -> float:
        """G* at lambda = 0, the value on the null space of Y^T Y."""
        return (1.0 + 1.0 / self.rho2) * (1.0 - self.q_zero / self.mean_q)

    def next_strengths(self):
        """(w1, w2) implied by the trace-free normalization."""
        w1 = 1.0 - (1.0 - self.mean_p) / (self.mean_p * self.rho1)
        w2 = 1.0 - (1.0 - self.mean_q) / (self.mean_q * self.rho2)
        return w1, w2


# -- spectral application through the cached SVD -------------------------------

def apply_left(svd: SvdCache, hvals, x):
    """h(YY^T) x for h given by its values at the eigenvalues."""
    return svd.U @ (hvals * (svd.U.T @ x))


def apply_right(svd: SvdCache, hvals, h_zero, y):
    """h(Y^T Y) y; the N - M dimensional null space contributes h(0) y."""
    return h_zero * y + svd.V @ ((hvals - h_zero) * (svd.V.T @ y))


def apply_cross_left(svd: SvdCache, hvals, g):
    """h(YY^T) Y g = U diag(h(sigma^2) sigma) V^T g."""
    return svd.U @ (hvals * svd.singular_values * (svd.V.T @ g))


def apply_cross_right(svd: SvdCache, hvals, f):
    """h(Y^T Y) Y^T f = V diag(h(sigma^2) sigma) U^T f."""
    return svd.V @ (hvals * svd.singular_values * (svd.U.T @ f))


# -- iteration ------------------------------------------------------------------

@dataclass
class IterationTrace:
    """Per-iteration overlap diagnostics of one run."""

    cos2_u: list = field(default_factory=list)
    cos2_v: list = field(default_factory=list)
    mse_u: list = field(default_factory=list)
    mse_v: list = field(default_factory=list)
    w1: list = field(default_factory=list)
    w2: list = field(default_factory=list)
    # raw normalized iterates for the last iteration requested via keep_iterates
    iterates: dict = field(default_factory=dict)


def _cos2(estimate, truth):
    denom = (estimate @ estimate) * (truth @ truth)
    return float((estimate @ truth) ** 2 / denom) if denom > 0 else 0.0


def _check_finite(x, label):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"{label} iterate diverged (non-finite entries)")


def optimal_oamp_run(inst: ProblemInstance, svd: SvdCache, shrinkage: ShrinkageSet,
                     channel_u: ScalarChannel, channel_v: ScalarChannel,
                     schedule, keep_iterates: tuple = ()) -> IterationTrace:
    """Run the optimal OAMP iteration along ``schedule``, the
    ``optimal_se_run`` of the same spectrum, SNR and channels, which gives
    the strengths w_t and output SNRs rho_t.

    The side channel is handled inside the scalar denoisers, so the iterate
    strengths start at w = 0 and the first update draws its signal content
    from the side information alone.
    """
    lam = svd.eigenvalues
    trace = IterationTrace()
    w1 = w2 = 0.0
    u_it = np.zeros(inst.M)
    v_it = np.zeros(inst.N)

    for t, (w1_next, w2_next, rho1, rho2) in enumerate(zip(
            schedule.w1, schedule.w2, schedule.rho1, schedule.rho2), 1):
        den = DenoiserSet(shrinkage, rho1, rho2)
        f = channel_u.dmmse(u_it, inst.a, w1)
        g = channel_v.dmmse(v_it, inst.b, w2)
        fv, ftv, gv, gtv = den.evaluate(lam)
        # a zero strength means the matrix step carries no signal (e.g.
        # theta = 0); the zero iterate keeps estimates on side info
        if w1_next == 0.0:
            u_it = np.zeros(inst.M)
        else:
            u_it = (apply_left(svd, fv, f)
                    + apply_cross_left(svd, ftv, g)) / np.sqrt(w1_next)
        if w2_next == 0.0:
            v_it = np.zeros(inst.N)
        else:
            v_it = (apply_right(svd, gv, den.g_zero(), g)
                    + apply_cross_right(svd, gtv, f)) / np.sqrt(w2_next)
        _check_finite(u_it, "u")
        _check_finite(v_it, "v")
        w1, w2 = w1_next, w2_next

        u_hat = channel_u.posterior_mean(u_it, inst.a, w1)
        v_hat = channel_v.posterior_mean(v_it, inst.b, w2)
        trace.cos2_u.append(_cos2(u_hat, inst.u_star))
        trace.cos2_v.append(_cos2(v_hat, inst.v_star))
        trace.mse_u.append(float(np.mean((u_hat - inst.u_star) ** 2)))
        trace.mse_v.append(float(np.mean((v_hat - inst.v_star) ** 2)))
        trace.w1.append(w1)
        trace.w2.append(w2)
        if t in keep_iterates:
            trace.iterates[t] = (u_it.copy(), v_it.copy())
    return trace


@dataclass
class GeneralOampSpec:
    """User-supplied pieces of one OAMP run (diagnostic / ablation harness).

    ``matrix_denoisers(t)`` returns callables (F, Ftil, G, Gtil) on the
    lambda axis plus the scalar G(0) used on the null space.  The iterate
    denoisers map (t, iterate, side info) to denoised vectors and must be
    divergence-free; the optional post-processors produce the reported
    estimates (default: the raw iterates).
    """

    matrix_denoisers: object
    denoiser_u: object
    denoiser_v: object
    post_u: object = None
    post_v: object = None


TRACE_FREE_TOL = 1e-8


def _check_trace_free(spectrum, F, G, g_zero, t):
    mu = spectrum.measure()
    d = spectrum.delta
    mean_f = mu.integrate(lambda l: F(np.atleast_1d(l)))
    mean_g = d * mu.integrate(lambda l: G(np.atleast_1d(l))) + (1.0 - d) * g_zero
    if abs(mean_f) > TRACE_FREE_TOL or abs(mean_g) > TRACE_FREE_TOL:
        raise OampError(
            f"matrix denoisers at t={t} are not trace-free: "
            f"<F>_mu = {mean_f:.3g}, <G>_mu_tilde = {mean_g:.3g}")


def general_oamp_run(inst: ProblemInstance, svd: SvdCache, spec: GeneralOampSpec,
                     spectrum, n_iter: int) -> IterationTrace:
    """OAMP with user-supplied per-iteration pieces.

    The matrix denoisers are checked for trace-freeness against the noise
    spectrum at registration of every iteration.
    """
    lam = svd.eigenvalues
    trace = IterationTrace()
    u_it = np.zeros(inst.M)
    v_it = np.zeros(inst.N)
    for t in range(1, n_iter + 1):
        f = spec.denoiser_u(t, u_it, inst.a)
        g = spec.denoiser_v(t, v_it, inst.b)
        F, Ftil, G, Gtil, g_zero = spec.matrix_denoisers(t)
        _check_trace_free(spectrum, F, G, g_zero, t)
        u_it = apply_left(svd, F(lam), f) + apply_cross_left(svd, Ftil(lam), g)
        v_it = (apply_right(svd, G(lam), g_zero, g)
                + apply_cross_right(svd, Gtil(lam), f))
        _check_finite(u_it, "u")
        _check_finite(v_it, "v")
        u_hat = spec.post_u(t, u_it, inst.a) if spec.post_u else u_it
        v_hat = spec.post_v(t, v_it, inst.b) if spec.post_v else v_it
        trace.cos2_u.append(_cos2(u_hat, inst.u_star))
        trace.cos2_v.append(_cos2(v_hat, inst.v_star))
        trace.mse_u.append(float(np.mean((u_hat - inst.u_star) ** 2)))
        trace.mse_v.append(float(np.mean((v_hat - inst.v_star) ** 2)))
    return trace
