"""State evolution: the strength schedules of optimal OAMP and of
Gaussian-noise AMP, which every simulated run reads, both iterated by one
strength loop, and the Gaussian-noise fixed point, the root of the AMP map
found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oamp
from .scalar_channel import ScalarChannel, output_snr
from .spectra import ShrinkageSet, _bisect

SE_CONVERGENCE_TOL = 1e-12


class StateEvolutionError(Exception):
    pass


@dataclass
class SeTrace:
    """Strength schedule: per-iteration channel strengths w_t, the predicted
    overlaps and, for OAMP, each step's ``oamp.DenoiserSet`` (its output SNRs
    rho_t and means <P*>, <Q*>); a method's prediction (``harness.se_predictions``).
    ``converged_at`` is the first step whose strengths moved less than
    SE_CONVERGENCE_TOL, or None; the steps after it are taken all the same."""

    w1: list = field(default_factory=list)
    w2: list = field(default_factory=list)
    denoisers: list = field(default_factory=list)
    cos2_u: list = field(default_factory=list)
    cos2_v: list = field(default_factory=list)
    mmse_u: list = field(default_factory=list)
    mmse_v: list = field(default_factory=list)
    converged_at: int | None = None


def _strength_loop(step, channel_u: ScalarChannel, channel_v: ScalarChannel,
                   n_iter: int) -> SeTrace:
    """The loop that iterates every schedule, from w1 = w2 = 0, for all of
    its ``n_iter`` steps.

    Step t maps the strengths to the next ones by ``step(t, w1, w2, m1,
    m2)``, with m1, m2 their mmse, which the loop evaluates once per
    strength (w = 0 included) and the trace records; the first step whose
    strengths move less than SE_CONVERGENCE_TOL is ``converged_at``.
    """
    trace = SeTrace()
    w1 = w2 = 0.0
    m1, m2 = channel_u.mmse(w1), channel_v.mmse(w2)
    for t in range(1, n_iter + 1):
        w1_next, w2_next = step(t, w1, w2, m1, m2)
        if (trace.converged_at is None
                and max(abs(w1_next - w1), abs(w2_next - w2)) < SE_CONVERGENCE_TOL):
            trace.converged_at = t
        w1, w2 = w1_next, w2_next
        m1, m2 = channel_u.mmse(w1), channel_v.mmse(w2)
        trace.w1.append(w1)
        trace.w2.append(w2)
        for mmse, cos2, m in ((trace.mmse_u, trace.cos2_u, m1),
                              (trace.mmse_v, trace.cos2_v, m2)):
            mmse.append(m)
            cos2.append(1.0 - m)
    return trace


def optimal_se_run(shrinkage: ShrinkageSet, channel_u: ScalarChannel,
                   channel_v: ScalarChannel, n_iter: int) -> SeTrace:
    """Strength schedule of the optimal OAMP iteration, its predicted
    overlaps and the denoisers that each of its steps applies.

    Strengths start at w = 0; the first step draws its signal content from
    the side information folded into the scalar channels.  A zero strength
    means the matrix step carries no signal.  Step t builds its own
    ``oamp.DenoiserSet`` at the output SNRs rho(w_{t-1}) of the
    divergence-free scalar denoisers, with w_0 = 0, from the mmse that the
    loop hands it, and the trace keeps it.
    """
    denoisers = []

    def step(t, w1, w2, m1, m2):
        denoisers.append(oamp.DenoiserSet(shrinkage, output_snr(w1, m1),
                                          output_snr(w2, m2)))
        w1_next, w2_next = denoisers[-1].next_strengths()
        # round-off around a collapsed strength (e.g. theta = 0) becomes 0
        w1_next = 0.0 if -1e-9 < w1_next < 1e-12 else w1_next
        w2_next = 0.0 if -1e-9 < w2_next < 1e-12 else w2_next
        if not (0.0 <= w1_next < 1.0 and 0.0 <= w2_next < 1.0):
            raise StateEvolutionError(
                f"strength left [0, 1) at t={t}: w1={w1_next:.6g}, w2={w2_next:.6g}")
        return w1_next, w2_next

    trace = _strength_loop(step, channel_u, channel_v, n_iter)
    trace.denoisers = denoisers
    return trace


def _amp_map(theta: float, delta: float, channel_v: ScalarChannel, m_u: float):
    """The Gaussian-noise AMP map from m_u = mmse_U(w1) to the new (w1, w2),
    with snr(w) = w/(1-w): the v half step snr(w2) = theta^2 (1 - m_u), then
    the u half step snr(w1) = (theta^2/delta)(1 - mmse_V(w2)) from the new w2."""
    gamma = theta ** 2 * (1.0 - m_u)
    w2 = gamma / (1.0 + gamma)
    gamma = theta ** 2 / delta * (1.0 - channel_v.mmse(w2))
    return gamma / (1.0 + gamma), w2


def amp_se_trajectory(theta: float, delta: float, channel_u: ScalarChannel,
                      channel_v: ScalarChannel, n_iter: int) -> SeTrace:
    """Strength schedule of Gaussian-noise AMP and its predicted overlaps,
    over all ``n_iter`` steps, whose strengths an AMP run scales its
    messages by.  The AMP map has no matrix denoisers, so ``denoisers``
    stays empty.
    """
    return _strength_loop(lambda t, w1, w2, m1, m2: _amp_map(theta, delta, channel_v, m1),
                          channel_u, channel_v, n_iter)


def gaussian_fixed_point(theta: float, delta: float, channel_u: ScalarChannel,
                         channel_v: ScalarChannel):
    """Fixed point (w1, w2, mmse_u, mmse_v) of the Gaussian-noise system

        mmse_U(w1) = 1 - (1/theta^2)   w2 / (1 - w2),
        mmse_V(w2) = 1 - (delta/theta^2) w1 / (1 - w1),

    the limit of the AMP schedule (``amp_se_trajectory``), whose map is
    T(w1) = _amp_map(mmse_U(w1)).  Both half steps increase with their
    input, so T(w1) does too, and the limit
    from w = 0 is the root of g(w1) = T(w1) - w1 on [T(0), 1]: g(T(0)) >= 0,
    and g(1) < 0 since mmse(1) = 0.  Where g(T(0)) is not positive (theta =
    0) T(0) is the fixed point; otherwise the bracket is bisected to
    rounding.  For both priors g is seen to change sign once there, so the
    root is the limit that the schedule climbs to.
    """
    if not (0.0 < delta <= 1.0 and 0.0 <= theta <= np.sqrt(np.finfo(float).max * delta)):
        raise StateEvolutionError(f"invalid parameters theta={theta}, delta={delta}")
    T = lambda w1: _amp_map(theta, delta, channel_v, channel_u.mmse(w1))
    lo = T(0.0)[0]
    g = lambda w1: T(w1)[0] - w1
    w1 = lo if g(lo) <= 0.0 else _bisect(g, lo, 1.0)
    w2 = T(w1)[1]
    return w1, w2, channel_u.mmse(w1), channel_v.mmse(w2)
