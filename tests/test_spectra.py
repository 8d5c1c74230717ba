"""Spectral transforms, shrinkage functions, and induced measures."""

import numpy as np
import pytest
from scipy import integrate

from rectoamp.spectra import (MarchenkoPastur, Measure, ShiftedBeta,
                              ShrinkageSet, SpectraError, Tabulated,
                              detection_threshold)

DELTA = 0.5


def quad_stieltjes(spectrum, z):
    """Adaptive-quadrature oracle for S(z) off the support."""
    re = integrate.quad(lambda l: (spectrum.density(l) * (z - l).real
                                   / abs(z - l) ** 2),
                        *spectrum.support, limit=200)[0]
    im = integrate.quad(lambda l: (spectrum.density(l) * -(z - l).imag
                                   / abs(z - l) ** 2),
                        *spectrum.support, limit=200)[0]
    return complex(re, im)


def pv_hilbert(spectrum, x, eps=1e-7):
    """Symmetric-excision principal value oracle for H(x)."""
    lo, hi = spectrum.support
    left = integrate.quad(lambda l: spectrum.density(l) / (x - l),
                          lo, x - eps, limit=400)[0] if x - eps > lo else 0.0
    right = integrate.quad(lambda l: spectrum.density(l) / (x - l),
                           x + eps, hi, limit=400)[0] if x + eps < hi else 0.0
    return (left + right) / np.pi


class TestMarchenkoPastur:
    def test_support(self):
        mp = MarchenkoPastur(DELTA)
        assert mp.support[0] == pytest.approx((1 - np.sqrt(DELTA)) ** 2)
        assert mp.support[1] == pytest.approx((1 + np.sqrt(DELTA)) ** 2)

    def test_density_integrates_to_one(self):
        for delta in (0.25, 0.5, 1.0):
            mp = MarchenkoPastur(delta)
            mass, _ = integrate.quad(mp.density, *mp.support, limit=400)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_stieltjes_matches_quadrature(self):
        mp = MarchenkoPastur(DELTA)
        for z in (5.0, 3.5 + 0.0j, 2.0 + 1.0j, -1.0 + 0.5j):
            assert mp.stieltjes(z) == pytest.approx(quad_stieltjes(mp, complex(z)),
                                                    abs=1e-8)

    def test_stieltjes_decay(self):
        mp = MarchenkoPastur(DELTA)
        z = 1e6
        assert z * mp.stieltjes(z) == pytest.approx(1.0, rel=1e-5)

    def test_stieltjes_at_zero(self):
        # S(0) = -1/(1 - delta) for delta < 1
        assert MarchenkoPastur(DELTA).stieltjes(0.0) == pytest.approx(-2.0)

    def test_hilbert_interior(self):
        mp = MarchenkoPastur(DELTA)
        for x in (0.5, 1.0, 2.0):
            assert mp.hilbert(x) == pytest.approx(pv_hilbert(mp, x), abs=1e-5)

    def test_hilbert_square_case_origin(self):
        assert MarchenkoPastur(1.0).hilbert(0.0) == pytest.approx(1 / (2 * np.pi))

    def test_on_support_stieltjes_rejected(self):
        mp = MarchenkoPastur(DELTA)
        with pytest.raises(SpectraError):
            mp.stieltjes(1.0)
        with pytest.raises(SpectraError):
            mp.c_derivative(1.0)

    @pytest.mark.parametrize("delta,lam", [(0.5, 2.95), (0.5, 6.0), (0.5, 0.05),
                                           (1.0, 4.2)])
    def test_c_derivative_matches_quadrature(self, delta, lam):
        # closed-form C' against S and S' = -int mu(t) / (lam - t)^2 dt by
        # adaptive quadrature, above and below the support
        mp = MarchenkoPastur(delta)
        s = integrate.quad(lambda t: mp.density(t) / (lam - t),
                           *mp.support, limit=400)[0]
        ds = -integrate.quad(lambda t: mp.density(t) / (lam - t) ** 2,
                             *mp.support, limit=400)[0]
        oracle = delta * s ** 2 + (2 * delta * lam * s + 1 - delta) * ds
        assert mp.c_derivative(lam) == pytest.approx(oracle, rel=1e-8)

    def test_plemelj_boundary(self):
        mp = MarchenkoPastur(DELTA)
        x, eps = 1.3, 1e-9
        s = mp.stieltjes(complex(x, -eps))
        assert s.real / np.pi == pytest.approx(mp.hilbert(x), rel=1e-4)
        assert s.imag / np.pi == pytest.approx(mp.density(x), rel=1e-4)

    def test_invalid_delta(self):
        with pytest.raises(SpectraError):
            MarchenkoPastur(0.0)
        with pytest.raises(SpectraError):
            MarchenkoPastur(1.5)


class TestShiftedBeta:
    def test_mass_and_moments(self):
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        mu = sp.measure()
        assert mu.total_mass == pytest.approx(1.0, abs=1e-10)
        # Beta(1.5, 1.5) on [1, 3] is symmetric about 2
        assert mu.integrate(lambda l: l) == pytest.approx(2.0, abs=1e-10)

    def test_stieltjes_and_hilbert_oracles(self):
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        assert sp.stieltjes(4.0 + 0.5j) == pytest.approx(
            quad_stieltjes(sp, 4.0 + 0.5j), abs=1e-7)
        assert sp.hilbert(1.7) == pytest.approx(pv_hilbert(sp, 1.7), abs=1e-5)
        # symmetry point: PV integral vanishes
        assert sp.hilbert(2.0) == pytest.approx(0.0, abs=1e-10)


class TestTabulated:
    def test_round_trip(self):
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        grid = np.linspace(1.0, 3.0, 4001)
        tab = Tabulated(grid, sp.density(grid), DELTA)
        assert tab.stieltjes(5.0) == pytest.approx(sp.stieltjes(5.0), abs=1e-5)
        assert tab.measure().total_mass == pytest.approx(1.0, abs=1e-9)


class TestMeasure:
    def test_atoms_and_complex(self):
        m = Measure(np.array([1.0]), np.array([0.5]), atoms=((3.0, 0.5),))
        assert m.total_mass == pytest.approx(1.0)
        assert m.integrate(lambda l: l) == pytest.approx(2.0)
        val = m.integrate(lambda l: 1.0 / (1j + l))
        assert isinstance(val, complex)

    def test_constant_function(self):
        m = Measure(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
        assert m.integrate(lambda _: 1.0) == pytest.approx(1.0)


class TestShrinkage:
    def test_theta_zero_reduction(self):
        sh = ShrinkageSet(MarchenkoPastur(DELTA), 0.0)
        lam = np.array([0.5, 1.0, 2.0])
        p1, p2, p3 = sh.phi(lam)
        assert np.allclose(p1, 1.0)
        assert np.allclose(p2, DELTA)
        assert np.allclose(p3, 0.0)
        assert np.allclose(sh.plemelj_denominator(lam), 1.0)

    def test_square_case_phi2_equals_phi1(self):
        sh = ShrinkageSet(MarchenkoPastur(1.0), 1.5)
        lam = np.array([0.7, 1.5, 3.0])
        p1, p2, _ = sh.phi(lam)
        assert np.allclose(p1, p2)

    def test_plemelj_denominator_oracle(self, mp05):
        # |1 - theta^2 C(x - i eps)|^2 approaches the two-square expansion
        sh = ShrinkageSet(mp05, 2.0)
        for x in (0.5, 1.0, 2.0):
            oracle = abs(1 - 4.0 * mp05.c_transform(complex(x, -1e-8))) ** 2
            assert sh.plemelj_denominator(x) == pytest.approx(oracle, rel=1e-4)

    def test_negative_lambda_rejected(self, shrink_mp2):
        with pytest.raises(SpectraError):
            shrink_mp2.numerators(np.array([-0.1]))


class TestAtoms:
    def test_mp_atom_location_and_masses(self, shrink_mp2):
        atoms = shrink_mp2.find_spectral_atoms()
        assert len(atoms) == 1
        atom = atoms[0]
        # root of 1 = theta^2 C(lambda) for the quarter-circle law at theta=2
        assert atom.location == pytest.approx(5.625, abs=1e-9)
        assert atom.nu1_mass == pytest.approx(31.0 / 36.0, abs=1e-9)
        assert atom.nu2_mass == pytest.approx(0.775, abs=1e-9)
        assert atom.verified

    def test_subcritical_no_atoms(self, mp05):
        sh = ShrinkageSet(mp05, 0.5)   # below the detection threshold
        assert sh.find_spectral_atoms() == []

    def test_detection_threshold(self, mp05):
        assert detection_threshold(mp05) == pytest.approx(DELTA ** 0.25, abs=1e-3)

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_beta_atom_just_above_threshold(self, delta):
        # the root lies within 1e-6 of the edge, where a centred difference
        # for C' would step onto the support
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta)
        sh = ShrinkageSet(sp, detection_threshold(sp) * (1 + 1e-3))
        above = [a for a in sh.find_spectral_atoms() if a.location > sp.support[1]]
        assert len(above) == 1 and above[0].verified
        assert above[0].nu1_mass > 0 and above[0].nu2_mass > 0

    def test_beta_has_two_atoms(self, shrink_beta2):
        atoms = shrink_beta2.find_spectral_atoms()
        locs = sorted(a.location for a in atoms)
        assert len(atoms) == 2
        assert locs[0] == pytest.approx(0.9433, abs=1e-3)
        assert locs[1] == pytest.approx(6.8982, abs=1e-3)
        lower = min(atoms, key=lambda a: a.location)
        assert not lower.verified
        assert lower.nu1_mass > 0 and lower.nu2_mass > 0


class TestInducedMeasures:
    def test_masses(self, shrink_mp2):
        meas = shrink_mp2.build_induced_measures()
        assert meas.nu1.total_mass == pytest.approx(1.0, abs=1e-8)
        assert meas.nu2.total_mass == pytest.approx(1.0, abs=1e-8)
        assert meas.nu3.total_mass == pytest.approx(0.0, abs=1e-8)
        assert meas.nu2_zero_mass == pytest.approx(0.1, abs=1e-9)

    def test_nu3_first_moment_identity(self, shrink_mp2, shrink_beta2):
        # <sigma>_nu3 = theta sqrt(delta) / (1 + delta)
        expect = 2.0 * np.sqrt(DELTA) / (1 + DELTA)
        for sh in (shrink_mp2, shrink_beta2):
            meas = sh.build_induced_measures()
            assert meas.nu3.integrate(lambda s: s) == pytest.approx(
                expect, abs=2e-5)

    @pytest.mark.parametrize("z", [4.0 + 1.0j, 7.5, -2.0 + 0.3j])
    def test_stieltjes_identities(self, shrink_mp2, z):
        # S_nu1 = S_mu / (1 - theta^2 C); S_nu2 has the companion form
        sp, th = shrink_mp2.spectrum, shrink_mp2.theta
        meas = shrink_mp2.build_induced_measures()
        s_mu, c = sp.stieltjes(z), sp.c_transform(z)
        s1 = meas.nu1.integrate(lambda l: 1.0 / (z - l))
        s2 = meas.nu2.integrate(lambda l: 1.0 / (z - l))
        assert s1 == pytest.approx(s_mu / (1 - th ** 2 * c), abs=1e-8)
        assert s2 == pytest.approx(
            (DELTA * s_mu + (1 - DELTA) / z) / (1 - th ** 2 * c), abs=1e-8)

    def test_stieltjes_identities_beta(self, shrink_beta2):
        sp, th = shrink_beta2.spectrum, shrink_beta2.theta
        meas = shrink_beta2.build_induced_measures()
        z = 9.0 + 0.5j
        s_mu, c = sp.stieltjes(z), sp.c_transform(z)
        s1 = meas.nu1.integrate(lambda l: 1.0 / (z - l))
        assert s1 == pytest.approx(s_mu / (1 - th ** 2 * c), abs=2e-4)

    def test_nu3_stieltjes_identity(self, shrink_mp2):
        # S_nu3(z) = (sqrt(d)/(1+d)) theta C(z^2) / (1 - theta^2 C(z^2))
        sp, th = shrink_mp2.spectrum, shrink_mp2.theta
        meas = shrink_mp2.build_induced_measures()
        z = 3.1
        c = sp.c_transform(z ** 2)
        expect = (np.sqrt(DELTA) / (1 + DELTA)) * th * c / (1 - th ** 2 * c)
        got = meas.nu3.integrate(lambda s: 1.0 / (z - s))
        assert got == pytest.approx(expect, abs=1e-8)
