"""Orthogonal AMP iterations with long-memory-free spectral denoisers.

The iteration alternates divergence-free scalar denoising of the current
iterates with trace-free polynomial-in-Y linear updates:

    u_t = (1/sqrt(w1_t)) [F*_t(YY^T) fbar(u_{t-1}) + Ftil*_t(YY^T) Y gbar(v_{t-1})]
    v_t = (1/sqrt(w2_t)) [G*_t(Y^T Y) gbar(v_{t-1}) + Gtil*_t(Y^T Y) Y^T fbar(u_{t-1})]

with estimates given by the posterior means at the predicted strengths.
The module holds the optimal matrix denoisers (``DenoiserSet``, exact at
the spectral outliers), the four spectral applications (``apply_left``,
``apply_right``, ``apply_cross_left``, ``apply_cross_right``) and the one
run loop, ``optimal_oamp_run``.  The applications need only the
eigenpairs (lambda, U) of YY^T and Y itself, since h(Y^T Y) Y^T =
Y^T h(YY^T) and h(Y^T Y) = h(0) I + Y^T U diag((h - h(0)) / lambda) U^T Y;
each step projects its two inputs, U^T f and U^T (Y g), once.  That
the general state evolution collapses to the scalar schedule under these
denoisers is checked by driving ``state_evolution.se_step_general`` with
them, not by a second iteration.
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

    With phi_i = n_i / den (``ShrinkageSet.numerators``), the numerators
    satisfy the identity

        n1 n2 lambda - n3^2 = delta lambda den.

    Proof: write G = pi (H + i mu), p = 2 Re G = 2 pi H and q = |G|^2, with
    H and mu the Hilbert transform and density at lambda.  Then
    den = |1 - theta^2 G (1 - delta + delta lambda G)|^2,
    n1 = 1 + delta theta^2 lambda q, n3 = theta (1 - delta + delta lambda p)
    and n2 lambda = delta lambda n1 + theta (1 - delta) n3.  With A = 1 - delta,
    B = delta lambda and s = theta^2, both n1 n2 lambda - n3^2 and B den
    expand to

        B - s A B p - s B^2 p^2 + 2 s B^2 q + s^2 A^2 B q + s^2 A B^2 p q
          + s^2 B^3 q^2.

    The identity is polynomial in (H, mu), so it holds for any values of
    them: on and off the support, and for quadrature transforms.  The
    denominator of the phi-ratio formulas, D = (rho1 phi1 + 1)(rho2 phi2 +
    delta) lambda - rho1 rho2 phi3^2, then factors: den^2 D = lambda den E
    with

        E = delta rho1 rho2 + delta rho1 n1 + rho2 n2 + delta den,

    and for lambda > 0 the denoisers are

        P*    = (rho2 n2 + delta den) / E,
        Ptil* = sqrt(delta) rho2 n3 / (lambda E),
        Q*    = delta (rho1 n1 + den) / E,
        Qtil* = sqrt(delta) rho1 n3 / (lambda E).

    The common factor den, which vanishes at the spectral outliers, has
    cancelled, so these are exact there.  Since n1 >= 1 and den >= 0, the
    identity gives n2 >= 0 and hence E >= delta rho1 rho2 > 0.  lambda = 0
    keeps its own branch: Q* there is ``q_zero``, not the E-form's limit.
    """

    def __init__(self, shrinkage: ShrinkageSet, rho1: float, rho2: float):
        if rho1 <= 0 or rho2 <= 0:
            raise OampError(f"output SNRs must be positive, got ({rho1}, {rho2})")
        self.shrinkage = shrinkage
        self.delta = shrinkage.delta
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)

        # Q* extends continuously to lambda = 0 (needed for the mu-tilde mean
        # and for the constant part of G* acting on the null space of Y^T Y).
        self.q_zero = self.delta / (rho2 * shrinkage.phi2_zero() + self.delta)

        mu = shrinkage.spectrum.measure()
        p, _, q, _ = self._pq(mu.nodes, shrinkage.node_numerators)
        self.mean_p = float(np.sum(mu.weights * p))
        self.mean_q = (self.delta * float(np.sum(mu.weights * q))
                       + (1.0 - self.delta) * self.q_zero)
        if not 0.0 < self.mean_p < 1.0 or not 0.0 < self.mean_q < 1.0:
            raise OampError(
                f"spectral means out of range: <P*> = {self.mean_p:.6g}, "
                f"<Q*> = {self.mean_q:.6g}")

    def _pq(self, lam, numerators):
        """(P*, Ptil*, Q*, Qtil*) at ``lam`` from the numerators there."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        d, r1, r2 = self.delta, self.rho1, self.rho2
        n1, n2, n3, den = numerators
        zero = lam == 0.0
        with np.errstate(over="ignore"):
            a2 = r2 * n2 + d * den
            a1 = r1 * n1 + den
            e = d * r1 * r2 + d * r1 * n1 + a2
            lam_e = np.where(zero, 1.0, lam) * e
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(lam_e))):
            raise OampError("denoiser denominator E(lambda) or lambda E is not "
                            "finite on the evaluation grid")
        if not np.all(e[~zero] > 0):
            raise OampError("denoiser denominator E(lambda) is not positive "
                            "on the evaluation grid")
        cross = np.sqrt(d) * n3 / lam_e
        p = np.where(zero, 0.0, a2 / e)
        q = np.where(zero, self.q_zero, d * a1 / e)
        return p, np.where(zero, 0.0, r2 * cross), q, np.where(zero, 0.0, r1 * cross)

    def evaluate(self, lam, numerators=None):
        """(F*, Ftil*, G*, Gtil*) entrywise at eigenvalues of YY^T."""
        if numerators is None:
            numerators = self.shrinkage.numerators(lam)
        p, ptil, q, qtil = self._pq(lam, numerators)
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


# -- spectral application through U and Y ---------------------------------------
# Each takes h by its values at the eigenvalues of YY^T and ``proj``, the
# input's U-coordinates named in its docstring, which the caller computes
# once per step for the two products that share it.

def apply_left(svd: SvdCache, hvals, proj):
    """h(YY^T) x = U diag(h) U^T x; ``proj`` is U^T x."""
    return svd.U @ (hvals * proj)


def apply_right(svd: SvdCache, hvals, h_zero, y, proj):
    """h(Y^T Y) y = h(0) y + Y^T U diag((h - h(0)) / lambda) U^T Y y;
    ``proj`` is U^T (Y y).  The N - M dimensional null space contributes
    h(0) y.  lambda = 0 occurs only on the direct-SVD fallback, where
    Y^T u = 0, so its term is 0."""
    lam = svd.eigenvalues
    scale = np.divide(hvals - h_zero, lam, out=np.zeros_like(lam),
                      where=lam != 0.0)
    return h_zero * y + svd.Y.T @ (svd.U @ (scale * proj))


def apply_cross_left(svd: SvdCache, hvals, proj):
    """h(YY^T) Y g = U diag(h) U^T Y g; ``proj`` is U^T (Y g)."""
    return svd.U @ (hvals * proj)


def apply_cross_right(svd: SvdCache, hvals, proj):
    """h(Y^T Y) Y^T f = Y^T U diag(h) U^T f; ``proj`` is U^T f."""
    return svd.Y.T @ (svd.U @ (hvals * proj))


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
    numerators = shrinkage.numerators(lam)
    trace = IterationTrace()
    w1 = w2 = 0.0
    u_it = np.zeros(inst.M)
    v_it = np.zeros(inst.N)

    for t, (w1_next, w2_next, rho1, rho2) in enumerate(zip(
            schedule.w1, schedule.w2, schedule.rho1, schedule.rho2), 1):
        den = DenoiserSet(shrinkage, rho1, rho2)
        f = channel_u.dmmse(u_it, inst.a, w1)
        g = channel_v.dmmse(v_it, inst.b, w2)
        fv, ftv, gv, gtv = den.evaluate(lam, numerators)
        f_proj = svd.U.T @ f
        yg_proj = svd.U.T @ (svd.Y @ g)
        # a zero strength means the matrix step carries no signal (e.g.
        # theta = 0); the zero iterate keeps estimates on side info
        if w1_next == 0.0:
            u_it = np.zeros(inst.M)
        else:
            u_it = (apply_left(svd, fv, f_proj)
                    + apply_cross_left(svd, ftv, yg_proj)) / np.sqrt(w1_next)
        if w2_next == 0.0:
            v_it = np.zeros(inst.N)
        else:
            v_it = (apply_right(svd, gv, den.g_zero(), g, yg_proj)
                    + apply_cross_right(svd, gtv, f_proj)) / np.sqrt(w2_next)
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
