"""PCA and Gaussian-noise AMP baselines."""

import numpy as np
import pytest

from rectoamp.baselines import gaussian_amp_run, pca_estimate
from rectoamp.model import make_instance, thin_svd
from rectoamp.oamp import IterationTrace
from rectoamp.scalar_channel import ScalarChannel
from rectoamp.spectra import MarchenkoPastur, ShrinkageSet, detection_threshold
from rectoamp.state_evolution import amp_se_trajectory, gaussian_fixed_point


def _pca_cos2(theta, M=800, seed=0):
    side = ScalarChannel("rademacher", 0.0)
    inst = make_instance(side, side, MarchenkoPastur(0.5), M, 2 * M, theta, seed)
    trace = IterationTrace()
    trace.record(*pca_estimate(inst, thin_svd(inst.Y)), inst)
    return trace.cos2_u[0]


class TestPca:
    def test_null_signal(self):
        assert _pca_cos2(0.0, M=2000) <= 10.0 / 2000

    def test_strong_signal(self):
        assert _pca_cos2(50.0) >= 0.99

    def test_threshold_transition(self, mp05):
        # overlap switches from O(1/M) to Theta(1) across the root-existence
        # threshold of 1 - theta^2 C(lambda) = 0
        theta_c = detection_threshold(mp05)
        below = [_pca_cos2(t) for t in (0.5 * theta_c, 0.8 * theta_c)]
        above = [_pca_cos2(t) for t in (1.3 * theta_c, 1.6 * theta_c, 2.0)]
        assert max(below) < 0.05
        assert min(above) > 0.1
        assert above == sorted(above)

    def test_sign_alignment(self, mp05):
        side = ScalarChannel("rademacher", 0.0)
        inst = make_instance(side, side, mp05, 300, 600, 2.0, 1)
        u_hat, v_hat = pca_estimate(inst, thin_svd(inst.Y))
        assert u_hat @ inst.u_star > 0
        assert v_hat @ inst.v_star > 0


class TestGaussianAmp:
    def test_reaches_fixed_point(self, mp05, channels):
        w1, w2, m_u, m_v = gaussian_fixed_point(2.0, 0.5, *channels)
        schedule = amp_se_trajectory(2.0, 0.5, *channels, 15)
        finals_u, finals_v = [], []
        for seed in range(5):
            inst = make_instance(*channels, mp05, 1000, 2000, 2.0, seed)
            tr = gaussian_amp_run(inst, *channels, schedule)
            finals_u.append(tr.cos2_u[-1])
            finals_v.append(tr.cos2_v[-1])
        assert np.mean(finals_u) == pytest.approx(1 - m_u, abs=0.02)
        assert np.mean(finals_v) == pytest.approx(1 - m_v, abs=0.02)

    def test_theta_zero_side_info_floor(self, mp05):
        ch = ScalarChannel("rademacher", 0.3)
        schedule = amp_se_trajectory(0.0, 0.5, ch, ch, 5)
        finals = []
        for seed in range(8):
            inst = make_instance(ch, ch, mp05, 500, 1000, 0.0, seed)
            finals.append(gaussian_amp_run(inst, ch, ch, schedule).cos2_u[-1])
        floor = 1 - ch.mmse(0.0)
        # finite-size overlap is biased slightly above the population value
        assert np.mean(finals) == pytest.approx(floor, abs=0.04)

    def test_tracks_scalar_recursion(self, mp05, channels):
        # per-iteration agreement with the scalar map, a few MC standard errors
        schedule = amp_se_trajectory(2.0, 0.5, *channels, 6)
        curves = []
        for seed in range(5):
            inst = make_instance(*channels, mp05, 1000, 2000, 2.0, seed)
            curves.append(gaussian_amp_run(inst, *channels, schedule).cos2_u)
        mean = np.mean(curves, axis=0)
        sem = np.std(curves, axis=0, ddof=1) / np.sqrt(5)
        ch_u, ch_v = channels
        w1 = 0.0
        for t in range(6):
            g2 = 4.0 * (1 - ch_u.mmse(w1))
            w2 = g2 / (1 + g2)
            g1 = 8.0 * (1 - ch_v.mmse(w2))
            w1 = g1 / (1 + g1)
            pred = 1 - ch_u.mmse(w1)
            assert abs(mean[t] - pred) <= max(3 * sem[t], 0.01)
