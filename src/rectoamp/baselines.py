"""Baselines: PCA and the standard AMP iteration for i.i.d. Gaussian noise."""

from __future__ import annotations

import numpy as np

from .model import ProblemInstance, SvdCache
from .oamp import IterationTrace, _check_finite, _cos2
from .scalar_channel import ScalarChannel


class BaselineError(Exception):
    pass


def pca_estimate(inst: ProblemInstance, svd: SvdCache):
    """Rescaled top singular vector pair, sign-aligned with the truth.

    Returns (u_hat, v_hat, cos2_u, cos2_v) with unit-RMS normalization.
    """
    u = svd.U[:, 0] * np.sqrt(inst.M)
    v = svd.Y.T @ svd.U[:, 0]         # sigma_0 v_0, column 0 of Y^T U
    v = v / np.linalg.norm(v) * np.sqrt(inst.N)
    if u @ inst.u_star < 0:
        u = -u
    if v @ inst.v_star < 0:
        v = -v
    return u, v, _cos2(u, inst.u_star), _cos2(v, inst.v_star)


def gaussian_amp_run(inst: ProblemInstance, channel_u: ScalarChannel,
                     channel_v: ScalarChannel, schedule) -> IterationTrace:
    """AMP with Onsager correction, valid for i.i.d. Gaussian noise.

    Runs the steps of ``schedule``, the ``amp_se_trajectory`` of the same
    SNR, aspect ratio and channels: messages are rescaled onto the unit
    scalar channel with its strengths w_t and predicted alignments, with the
    empirical Onsager coefficients (1/N) sum of denoiser derivatives.
    Denoisers are posterior means conditioning jointly on the message and
    the side information.
    """
    theta, delta = inst.theta, inst.delta
    M, N = inst.M, inst.N
    trace = IterationTrace()

    # start from the side-information posterior mean (w = 0 message); the
    # alignment of f entering step t is the predicted cos^2 of step t - 1
    f = channel_u.posterior_mean(np.zeros(M), inst.a, 0.0)
    alphas = [1.0 - channel_u.mmse(0.0)] + list(schedule.cos2_u)
    g_prev = np.zeros(N)
    f_deriv_sum = 0.0

    for t, (w1, w2, alpha, beta) in enumerate(zip(
            schedule.w1, schedule.w2, alphas, schedule.cos2_v), 1):
        if alpha <= 0:
            raise BaselineError(f"denoiser alignment vanished at t={t}")
        s_v = np.sqrt(w2) / (theta * np.sqrt(delta) * alpha) if w2 > 0 else 0.0

        x = inst.Y.T @ f - (f_deriv_sum / N) * g_prev
        x_scaled = s_v * x
        g = channel_v.posterior_mean(x_scaled, inst.b, w2)
        g_deriv_sum = s_v * float(np.sum(
            channel_v.posterior_mean_derivative(x_scaled, inst.b, w2)))

        s_u = np.sqrt(w1) * np.sqrt(delta) / (theta * beta) if w1 > 0 else 0.0

        u_msg = inst.Y @ g - (g_deriv_sum / N) * f
        u_scaled = s_u * u_msg
        f = channel_u.posterior_mean(u_scaled, inst.a, w1)
        f_deriv_sum = s_u * float(np.sum(
            channel_u.posterior_mean_derivative(u_scaled, inst.a, w1)))
        g_prev = g
        _check_finite(f, "u")
        _check_finite(g, "v")

        trace.cos2_u.append(_cos2(f, inst.u_star))
        trace.cos2_v.append(_cos2(g, inst.v_star))
        trace.mse_u.append(float(np.mean((f - inst.u_star) ** 2)))
        trace.mse_v.append(float(np.mean((g - inst.v_star) ** 2)))
        trace.w1.append(w1)
        trace.w2.append(w2)
    return trace
