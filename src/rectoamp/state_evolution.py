"""State evolution: the general two-channel recursion, the strength
schedules of optimal OAMP and of Gaussian-noise AMP, which every simulated
run reads, and the Gaussian-noise fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oamp import DenoiserSet
from .scalar_channel import ScalarChannel
from .spectra import InducedMeasures, ShrinkageSet, SpectrumModel

SE_CONVERGENCE_TOL = 1e-12
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 10_000


class StateEvolutionError(Exception):
    pass


@dataclass
class SeTrace:
    """Strength schedule: per-iteration channel strengths w_t, denoiser
    output SNRs rho_t, and the predicted overlaps; a method's prediction
    (``harness.se_predictions``).  Holds only numbers, so it pickles."""

    w1: list = field(default_factory=list)
    w2: list = field(default_factory=list)
    rho1: list = field(default_factory=list)
    rho2: list = field(default_factory=list)
    cos2_u: list = field(default_factory=list)
    cos2_v: list = field(default_factory=list)
    mmse_u: list = field(default_factory=list)
    mmse_v: list = field(default_factory=list)
    converged_at: int | None = None


def se_step_general(measures: InducedMeasures, spectrum: SpectrumModel,
                    stats_f, stats_g, F, Ftil, G, Gtil):
    """One step of the general state evolution.

    ``stats_f = (alpha, sigma_f2)`` are the alignment and residual variance
    of the u-side scalar denoiser output; similarly ``stats_g``.  The matrix
    denoisers are callables on the lambda axis.  Returns
    (mu_u, sigma_u2, mu_v, sigma_v2) of the next iterate channels.
    """
    alpha, sf2 = stats_f
    beta, sg2 = stats_g
    d = spectrum.delta
    nu1, nu2, nu3 = measures.nu1, measures.nu2, measures.nu3
    mu = spectrum.measure()
    mu_t = spectrum.measure_tilde()

    mu_u = (alpha * nu1.integrate(F)
            + beta * (1.0 + 1.0 / d) * nu3.integrate(lambda s: s * Ftil(s ** 2)))
    mu_v = (beta * nu2.integrate(G)
            + alpha * (1.0 + d) * nu3.integrate(lambda s: s * Gtil(s ** 2)))
    sigma_u2 = (alpha ** 2 * nu1.integrate(lambda l: F(l) ** 2)
                + beta ** 2 / d * nu2.integrate(lambda l: l * Ftil(l) ** 2)
                + sf2 * mu.integrate(lambda l: F(l) ** 2)
                + 2.0 * alpha * beta * (1.0 + 1.0 / d)
                * nu3.integrate(lambda s: s * F(s ** 2) * Ftil(s ** 2))
                - mu_u ** 2
                + sg2 / d * mu_t.integrate(lambda l: l * Ftil(l) ** 2))
    sigma_v2 = (beta ** 2 * nu2.integrate(lambda l: G(l) ** 2)
                + alpha ** 2 * d * nu1.integrate(lambda l: l * Gtil(l) ** 2)
                + sf2 * d * mu.integrate(lambda l: l * Gtil(l) ** 2)
                + 2.0 * alpha * beta * (1.0 + d)
                * nu3.integrate(lambda s: s * G(s ** 2) * Gtil(s ** 2))
                - mu_v ** 2
                + sg2 * mu_t.integrate(lambda l: G(l) ** 2))
    if sigma_u2 < -1e-9 or sigma_v2 < -1e-9:
        raise StateEvolutionError(
            f"negative iterate variance: sigma_u2={sigma_u2:.3g}, "
            f"sigma_v2={sigma_v2:.3g}")
    return mu_u, max(sigma_u2, 0.0), mu_v, max(sigma_v2, 0.0)


def _append_overlaps(trace: SeTrace, m_u: float, m_v: float) -> None:
    for mmse, cos2, m in ((trace.mmse_u, trace.cos2_u, m_u),
                          (trace.mmse_v, trace.cos2_v, m_v)):
        mmse.append(m)
        cos2.append(1.0 - m)


def optimal_se_run(shrinkage: ShrinkageSet, channel_u: ScalarChannel,
                   channel_v: ScalarChannel, n_iter: int) -> SeTrace:
    """Strength schedule of the optimal OAMP iteration and its predicted
    overlaps.

    Strengths start at w = 0; the first step draws its signal content from
    the side information folded into the scalar channels.  A zero strength
    means the matrix step carries no signal.  Once successive strengths
    move less than SE_CONVERGENCE_TOL the trace is padded with the fixed
    point: the final strengths and overlaps, and the output SNRs that the
    final strengths give.
    """
    trace = SeTrace()
    w1 = w2 = 0.0
    for t in range(1, n_iter + 1):
        rho1 = channel_u.dmmse_stats(w1)[2]
        rho2 = channel_v.dmmse_stats(w2)[2]
        w1_next, w2_next = DenoiserSet(shrinkage, rho1, rho2).next_strengths()
        # round-off around a collapsed strength (e.g. theta = 0) becomes 0
        w1_next = 0.0 if -1e-9 < w1_next < 1e-12 else w1_next
        w2_next = 0.0 if -1e-9 < w2_next < 1e-12 else w2_next
        if not (0.0 <= w1_next < 1.0 and 0.0 <= w2_next < 1.0):
            raise StateEvolutionError(
                f"strength left [0, 1) at t={t}: w1={w1_next:.6g}, w2={w2_next:.6g}")
        moved = max(abs(w1_next - w1), abs(w2_next - w2))
        w1, w2 = w1_next, w2_next
        trace.w1.append(w1)
        trace.w2.append(w2)
        trace.rho1.append(rho1)
        trace.rho2.append(rho2)
        _append_overlaps(trace, channel_u.mmse(w1), channel_v.mmse(w2))
        if moved < SE_CONVERGENCE_TOL:
            trace.converged_at = t
            pad = n_iter - t
            # a later step would take its rho from the final strengths
            trace.rho1.extend([channel_u.dmmse_stats(w1)[2]] * pad)
            trace.rho2.extend([channel_v.dmmse_stats(w2)[2]] * pad)
            for lst in (trace.w1, trace.w2, trace.mmse_u, trace.mmse_v,
                        trace.cos2_u, trace.cos2_v):
                lst.extend([lst[-1]] * pad)
            break
    return trace


# -- the two half steps of the Gaussian-noise AMP map, with snr(w) = w/(1-w):
#    snr(w2) = theta^2 (1 - mmse_U(w1)),  snr(w1) = (theta^2/delta)(1 - mmse_V(w2))

def _amp_w2(theta: float, channel_u: ScalarChannel, w1: float) -> float:
    gamma = theta ** 2 * (1.0 - channel_u.mmse(w1))
    return gamma / (1.0 + gamma)


def _amp_w1(theta: float, delta: float, channel_v: ScalarChannel,
            w2: float) -> float:
    gamma = theta ** 2 / delta * (1.0 - channel_v.mmse(w2))
    return gamma / (1.0 + gamma)


def amp_se_trajectory(theta: float, delta: float, channel_u: ScalarChannel,
                      channel_v: ScalarChannel, n_iter: int) -> SeTrace:
    """Strength schedule of Gaussian-noise AMP and its predicted overlaps.

    Each step takes the v half step from the previous w1, then the u half
    step from the new w2.  The AMP map has no output SNRs, so ``rho1`` and
    ``rho2`` stay empty.
    """
    trace = SeTrace()
    w1 = 0.0
    for _ in range(n_iter):
        w2 = _amp_w2(theta, channel_u, w1)
        w1 = _amp_w1(theta, delta, channel_v, w2)
        trace.w1.append(w1)
        trace.w2.append(w2)
        _append_overlaps(trace, channel_u.mmse(w1), channel_v.mmse(w2))
    return trace


def gaussian_fixed_point(theta: float, delta: float, channel_u: ScalarChannel,
                         channel_v: ScalarChannel):
    """Fixed point (w1, w2) of the Gaussian-noise system

        mmse_U(w1) = 1 - (1/theta^2)   w2 / (1 - w2),
        mmse_V(w2) = 1 - (delta/theta^2) w1 / (1 - w1),

    i.e. of the AMP map above, solved by damped iteration from w = 0; side
    information in the channels makes the first step informative and the
    map climbs to the stable solution.
    """
    if not (0.0 < delta <= 1.0 and 0.0 <= theta <= np.sqrt(np.finfo(float).max * delta)):
        raise StateEvolutionError(f"invalid parameters theta={theta}, delta={delta}")
    w1 = w2 = 0.0
    damping = FIXED_POINT_DAMPING
    for _ in range(FIXED_POINT_MAX_ITER):
        w2_new = _amp_w2(theta, channel_u, w1)
        w1_new = _amp_w1(theta, delta, channel_v, w2)
        w1_next = (1.0 - damping) * w1_new + damping * w1
        w2_next = (1.0 - damping) * w2_new + damping * w2
        moved = max(abs(w1_next - w1), abs(w2_next - w2))
        w1, w2 = w1_next, w2_next
        if moved < FIXED_POINT_TOL:
            return w1, w2, channel_u.mmse(w1), channel_v.mmse(w2)
    raise StateEvolutionError(
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} "
        f"steps (last move {moved:.3g})")
