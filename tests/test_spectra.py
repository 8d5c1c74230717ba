"""Spectral transforms, shrinkage functions, and induced measures."""

import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

import rectoamp
from rectoamp import spectra
from rectoamp.spectra import (MarchenkoPastur, Measure, ShiftedBeta,
                              ShrinkageSet, SpectraError, Tabulated,
                              detection_threshold)

DELTA = 0.5
# the grid of the former atom sign scan, kept here as an independent oracle
SCAN_POINTS = 10_000
SCAN_BLOCKS = 20


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


def scan_c_transform(spectrum, a, b):
    """(grid, C on it): the SCAN_POINTS grid on [a, b], evaluated in
    complex-dtype blocks."""
    grid = np.linspace(a, b, SCAN_POINTS)
    return grid, np.concatenate([np.real(spectrum.c_transform(block.astype(complex)))
                                 for block in np.array_split(grid, SCAN_BLOCKS)])


def scan_brackets(shrink, a, b):
    """g = 1 - theta^2 C and the grid cells on [a, b] where its sign bit changes."""
    spec, th = shrink.spectrum, shrink.theta
    g = lambda lam: 1.0 - th ** 2 * np.real(spec.c_transform(lam))
    grid, c = scan_c_transform(spec, a, b)
    return g, [(grid[i], grid[i + 1])
               for i in np.nonzero(np.diff(np.signbit(1.0 - th ** 2 * c)))[0]]


def scan_brentq_roots(shrink, a, b):
    """The former atom search on [a, b]: sign changes of 1 - theta^2 C on
    the scan grid, each refined by scipy's brentq."""
    g, cells = scan_brackets(shrink, a, b)
    return [optimize.brentq(g, l, r, xtol=1e-12, rtol=1e-14) for l, r in cells]


def complex_scan_roots(shrink, a, b):
    """The former lower-edge search in complex arithmetic: sign changes of
    1 - theta^2 C on the scan grid, each refined by spectra._bisect."""
    g, cells = scan_brackets(shrink, a, b)
    return [spectra._bisect(g, l, r) for l, r in cells]


def mp_or_beta(kind, delta):
    if kind == "mp":
        return MarchenkoPastur(delta)
    return ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta)


def legendre_reference(n, x):
    """spectra._legendre as it was before the rule was cached: the
    three-term recurrence with (2j - 1) x p - (j - 1) p_prev divided by j."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def gauss_legendre_reference(n):
    """The n-point rule on [-1, 1] as it was computed before it was cached:
    Newton on every positive node until all corrections are below eps,
    then the weights."""
    k = np.arange(1, n // 2 + 1)
    t = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n ** 4)) * np.cos(t)
    for _ in range(10):
        p, dp = legendre_reference(n, x)
        dx = p / dp
        x -= dx
        if np.all(np.abs(dx) <= np.finfo(float).eps):
            break
    else:
        raise AssertionError("reference Newton iteration did not converge")
    x = np.concatenate((np.zeros(n % 2), x[::-1]))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * legendre_reference(n, x)[1] ** 2)
    x = np.concatenate((-x[n % 2:][::-1], x))
    w = np.concatenate((w[n % 2:][::-1], w))
    return x, w


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [7, 8, 2000])
    def test_rule(self, n):
        x, w = spectra._gauss_legendre(-1.0, 1.0, n)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w / w_ref - 1)) <= 1e-7
        assert abs(w.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", [7, 8, 2000])
    def test_matches_full_newton(self, n):
        # per-node stopping, the in-place recurrence and one weight pass
        # against the former rule (at n = 2000: 1.1e-16 and 4.4e-12)
        x, w = spectra._gauss_legendre(-1.0, 1.0, n)
        x_ref, w_ref = gauss_legendre_reference(n)
        assert np.max(np.abs(x - x_ref)) <= 2.2e-16
        assert np.max(np.abs(w / w_ref - 1)) <= 1e-11

    def test_rule_built_once_per_size(self, monkeypatch):
        calls = []
        legendre = spectra._legendre

        def counted(n, x):
            calls.append(n)
            return legendre(n, x)

        spectra._reference_rule.cache_clear()
        monkeypatch.setattr(spectra, "_legendre", counted)
        MarchenkoPastur(DELTA)
        assert calls
        calls.clear()
        MarchenkoPastur(1.0)
        ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        assert calls == []

    def test_cached_rule_is_read_only_and_unshared(self):
        x, w = spectra._reference_rule(spectra.DEFAULT_QUAD_NODES)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        rules = [(sp.nodes, sp.quad_weights) for sp in
                 (MarchenkoPastur(DELTA), ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA))]
        rules.append(spectra._gauss_legendre(-1.0, 1.0, spectra.DEFAULT_QUAD_NODES))
        for owned in (a for rule in rules for a in rule):
            assert owned.flags.writeable
            assert not np.shares_memory(owned, x) and not np.shares_memory(owned, w)

    def test_high_degree_monomial(self):
        # leggauss(2000) is off by 1.2e-10 here
        x, w = spectra._gauss_legendre(-1.0, 1.0, 2000)
        assert np.dot(w, x ** 1000) == pytest.approx(2 / 1001, rel=1e-12, abs=0)

    def test_spectra_build_without_leggauss(self, monkeypatch):
        def unavailable(n):
            raise AssertionError("leggauss called")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", unavailable)
        for kind in ("mp", "beta"):
            assert mp_or_beta(kind, DELTA).measure().total_mass == pytest.approx(1.0)


def test_cold_start_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(rectoamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, rectoamp\n"
            "rectoamp.MarchenkoPastur(0.5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("a,b,lo,hi", [
        (0.0, 1.5, 1.0, 3.0), (1.5, -1.0, 1.0, 3.0), (np.nan, 1.5, 1.0, 3.0),
        (1.5, np.inf, 1.0, 3.0), (1.5, 1.5, np.nan, 3.0), (1.5, 1.5, 1.0, np.inf)],
        ids=["a_zero", "b_negative", "a_nan", "b_inf", "lo_nan", "hi_inf"])
    def test_invalid_parameters(self, a, b, lo, hi):
        # rejected before any quadrature is built
        with pytest.raises(SpectraError):
            ShiftedBeta(a, b, lo, hi, DELTA)


def hilbert_reference(spectrum, x):
    """SpectrumModel.hilbert as it was computed with full-size temporaries,
    each row reduced by the same einsum (a gemv's per-row bits depend on
    the total row count)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    lo, hi = spectrum.support
    mux = np.atleast_1d(spectrum.density(x))
    diff = x[:, None] - spectrum.nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (spectrum._density_at_nodes - mux[:, None]) / diff
    integrand = np.where(np.isfinite(integrand), integrand, 0.0)
    out = np.einsum("ij,j->i", integrand, spectrum.quad_weights)
    inside = (x > lo) & (x < hi)
    out[inside] += mux[inside] * np.log((x[inside] - lo) / (hi - x[inside]))
    out /= np.pi
    return float(out[0]) if scalar else out


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("make", [
    lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA),
    lambda: ShiftedBeta(0.5, 2.0, 1.0, 3.0, 1.0),
    lambda: Tabulated(np.linspace(1.0, 3.0, 201),
                      np.sin(np.linspace(0.0, np.pi, 201)), DELTA),
], ids=["beta", "beta_infinite_edge", "tabulated"])
def test_hilbert_matches_reference_bitwise(make):
    sp = make()
    lo, hi = sp.support
    off_nodes = np.linspace(lo, hi, 37)
    outside = np.array([0.0, 0.5 * lo, hi + 1e-9, 2.0 * hi])
    for x in (sp.nodes, off_nodes, outside, np.concatenate((off_nodes, sp.nodes))):
        assert np.array_equal(sp.hilbert(x), hilbert_reference(sp, x))
    # lengths around the row block, mixing nodes, off-node and outside points
    mixed = np.concatenate((outside, off_nodes, sp.nodes))[::3]
    block = spectra._HILBERT_BLOCK_ROWS
    for size in (0, 1, block - 1, block, block + 1, 2 * block + 37):
        x = mixed[:size]
        assert x.size == size
        assert np.array_equal(sp.hilbert(x), hilbert_reference(sp, x))
    for x in (sp.nodes[17], 0.5 * (lo + hi) + 0.1, lo, hi + 0.5):
        h = sp.hilbert(x)
        assert isinstance(h, float) and h == hilbert_reference(sp, x)


@pytest.mark.parametrize("points", ["nodes", "linspace_1000"])
def test_hilbert_memory_is_bounded(points):
    # the row blocks keep the traced peak near 4 MB (64 MB at the 2000
    # nodes and 32 MB at 1000 points with full-size temporaries)
    sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
    x = sp.nodes if points == "nodes" else np.linspace(0.5, 3.5, 1000)
    tracemalloc.start()
    try:
        sp.hilbert(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


class TestTabulated:
    def test_round_trip(self):
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        grid = np.linspace(1.0, 3.0, 4001)
        tab = Tabulated(grid, sp.density(grid), DELTA)
        assert tab.stieltjes(5.0) == pytest.approx(sp.stieltjes(5.0), abs=1e-5)
        assert tab.measure().total_mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make", [
    lambda: MarchenkoPastur(DELTA),
    lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA),
    lambda: Tabulated(np.linspace(1.0, 3.0, 201),
                      np.sin(np.linspace(0.0, np.pi, 201)), DELTA),
], ids=["mp", "beta", "tabulated"])
def test_pickle_round_trip(make):
    sp = make()
    back = pickle.loads(pickle.dumps(sp))
    x = np.linspace(sp.support[0] - 0.5, sp.support[1] + 0.5, 41)
    z = x + 0.3j
    assert np.array_equal(back.density(x), sp.density(x))
    assert np.array_equal(back.stieltjes(z), sp.stieltjes(z))
    assert np.array_equal(back.hilbert(x), sp.hilbert(x))


@pytest.mark.parametrize("make", [
    lambda: MarchenkoPastur(DELTA),
    lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA),
    lambda: Tabulated(np.linspace(1.0, 3.0, 201),
                      np.sin(np.linspace(0.0, np.pi, 201)), DELTA),
], ids=["mp", "beta", "tabulated"])
def test_node_hilbert_pickles(make):
    sp = make()
    back = pickle.loads(pickle.dumps(sp))
    assert np.array_equal(back._hilbert_at_nodes, sp._hilbert_at_nodes)
    assert np.array_equal(back._hilbert_at_nodes, sp.hilbert(sp.nodes))


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

    def test_node_hilbert_computed_once(self, monkeypatch):
        # a ShrinkageSet reads the spectrum's stored node Hilbert transform;
        # only the scalar H(0) is evaluated per SNR
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        hilbert = sp.hilbert

        def scalar_only(x):
            if np.size(x) > 1:
                raise AssertionError("node Hilbert transform recomputed")
            return hilbert(x)

        monkeypatch.setattr(sp, "hilbert", scalar_only)
        built = [ShrinkageSet(sp, theta) for theta in (0.5, 2.0, 4.0)]
        monkeypatch.undo()
        for sh in built:
            for got, want in zip(sh.node_numerators, sh.numerators(sp.nodes)):
                assert np.array_equal(got, want)

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
        assert atom.location > shrink_mp2.spectrum.support[1]

    def test_subcritical_no_atoms(self, mp05):
        sh = ShrinkageSet(mp05, 0.5)   # below the detection threshold
        assert sh.find_spectral_atoms() == []

    def test_detection_threshold(self):
        # C at the edge itself: MP's threshold is delta^(1/4) to rounding
        for delta in (0.25, 0.5, 1.0):
            assert detection_threshold(MarchenkoPastur(delta)) == pytest.approx(
                delta ** 0.25, rel=1e-12, abs=0)

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_beta_atom_just_above_threshold(self, delta):
        # the root lies within 1e-6 of the edge, where a centred difference
        # for C' would step onto the support
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta)
        sh = ShrinkageSet(sp, detection_threshold(sp) * (1 + 1e-3))
        above = [a for a in sh.find_spectral_atoms() if a.location > sp.support[1]]
        assert len(above) == 1 and above[0].location > sp.support[1]
        assert above[0].nu1_mass > 0 and above[0].nu2_mass > 0

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["mp", "beta"]), delta=st.floats(0.2, 1.0),
           data=st.data())
    def test_upper_root_matches_scan(self, kind, delta, data):
        # one bisected bracket above the edge finds the root of the former
        # grid scan plus brentq; the masses follow the root, whose error
        # they amplify by |C''/C'| ~ 1 / (2 (root - edge)) near the edge
        sp = mp_or_beta(kind, delta)
        theta_c = detection_threshold(sp)
        log_excess = data.draw(st.floats(-6.0, np.log10(5.0 / theta_c - 1.0)))
        sh = ShrinkageSet(sp, min(theta_c * (1.0 + 10.0 ** log_excess), 5.0))
        hi = sp.support[1]
        upper = [a for a in sh.find_spectral_atoms() if a.location > hi]
        # scanned from the edge, where the bracket and the threshold start
        old = scan_brentq_roots(sh, hi,
                                hi + spectra.ROOT_MARGIN_FACTOR * (1 + sh.theta ** 2))
        assert len(upper) == len(old) == 1
        new = upper[0]
        assert new.location == pytest.approx(old[0], rel=1e-12, abs=0)
        ref = sh._atom_at(old[0])
        tol = abs(new.location - old[0]) / (new.location - hi) + 1e-12
        for got, want in ((new.nu1_mass, ref.nu1_mass), (new.nu2_mass, ref.nu2_mass),
                          (new.nu3_mass_pos, ref.nu3_mass_pos)):
            assert got == pytest.approx(want, rel=tol, abs=0)

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["mp", "beta"])
    def test_upper_atom_from_the_threshold_on(self, kind, delta):
        # the upper bracket starts at the edge, as the threshold does: 1e-6
        # above theta_c the root sits 3e-12 (mp) or 5e-10 (beta) above the
        # edge, below where a bracket from hi + 1e-9 hi would start
        sp = mp_or_beta(kind, delta)
        hi, theta_c = sp.support[1], detection_threshold(sp)
        upper = [a for a in ShrinkageSet(sp, theta_c * (1 + 1e-6)).find_spectral_atoms()
                 if a.location > hi]
        assert len(upper) == 1 and upper[0].nu1_mass > 0 and upper[0].nu2_mass > 0
        # closer still the MP root rounds to the edge, where C' is infinite:
        # that root is no atom, and no division by zero is attempted
        upper = [a for a in ShrinkageSet(sp, theta_c * (1 + 1e-12)).find_spectral_atoms()
                 if a.location > hi]
        assert len(upper) == (kind == "beta")

    @pytest.mark.parametrize("excess", [1e-3, 1e-6])
    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["mp", "beta"])
    def test_no_upper_atom_below_threshold(self, kind, delta, excess):
        sp = mp_or_beta(kind, delta)
        sh = ShrinkageSet(sp, detection_threshold(sp) * (1 - excess))
        assert not [a for a in sh.find_spectral_atoms() if a.location > sp.support[1]]

    def test_lower_root_matches_scan(self, shrink_beta2):
        # one bisected bracket below the lower edge finds the root of the
        # former grid scan plus brentq
        lo = shrink_beta2.spectrum.support[0]
        old = scan_brentq_roots(shrink_beta2, 1e-9, lo - 1e-9)
        lower = [a.location for a in shrink_beta2.find_spectral_atoms()
                 if a.location < lo]
        assert len(old) == len(lower) == 1
        assert lower[0] == pytest.approx(old[0], rel=1e-12, abs=0)
        assert lower[0] == pytest.approx(0.943336, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["beta", "mp", "tabulated"]),
           delta=st.floats(0.2, 1.0), theta=st.floats(0.5, 5.0),
           a=st.floats(0.5, 3.0), b=st.floats(0.5, 3.0))
    @example(kind="beta", delta=1.0, theta=4.0, a=1.5, b=1.5)
    @example(kind="mp", delta=0.5, theta=5.0, a=1.5, b=1.5)
    @example(kind="mp", delta=1.0, theta=5.0, a=1.5, b=1.5)
    @example(kind="tabulated", delta=0.5, theta=4.0, a=1.0, b=1.5)
    @example(kind="tabulated", delta=1.0, theta=4.0, a=1.0, b=1.5)
    def test_lower_roots_match_complex_scan(self, kind, delta, theta, a, b):
        # one bisected bracket below the lower edge gives, bitwise, the roots
        # of the former grid scan plus the same bisection (none for MP, whose
        # C stays <= 0 below its support; none at all for MP at delta = 1,
        # whose support starts at 0)
        if kind == "mp":
            sp = MarchenkoPastur(delta)
        elif kind == "tabulated":
            t = np.linspace(0.0, 1.0, 201)
            sp = Tabulated(1.0 + 2.0 * t, np.sin(np.pi * t) ** a * (1.0 + t) ** b, delta)
        else:
            sp = ShiftedBeta(a, b, 1.0, 3.0, delta)
        sh = ShrinkageSet(sp, theta)
        lo = sp.support[0]
        lower = [atom.location for atom in sh.find_spectral_atoms()
                 if atom.location < lo]
        eps = 1e-9 * max(1.0, lo)
        assert lower == (complex_scan_roots(sh, eps, lo - eps) if lo > 2 * eps else [])

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.05, 1.0), theta=st.floats(0.1, 16.0),
           a=st.floats(0.36, 4.0), b=st.floats(0.36, 4.0),
           lo=st.floats(0.05, 3.0), width=st.floats(0.1, 4.0))
    def test_lower_edge_c_transform_increases_where_positive(self, delta, theta, a, b,
                                                             lo, width):
        # the lemma behind the single lower bracket: below the support
        # C = T (delta h - (1 - delta)) with T = -S and h = lambda T
        # increasing, so C increases wherever it is positive and
        # g = 1 - theta^2 C changes sign at most once
        sp = ShiftedBeta(a, b, lo, lo + width, delta)
        eps = 1e-9 * max(1.0, lo)
        _, c = scan_c_transform(sp, eps, lo - eps)
        assert np.all(np.diff(c)[c[:-1] > 0] > 0)
        assert np.count_nonzero(np.diff(np.signbit(1.0 - theta ** 2 * c))) <= 1

    def test_beta_has_two_atoms(self, shrink_beta2):
        atoms = shrink_beta2.find_spectral_atoms()
        locs = sorted(a.location for a in atoms)
        assert len(atoms) == 2
        assert locs[0] == pytest.approx(0.9433, abs=1e-3)
        assert locs[1] == pytest.approx(6.8982, abs=1e-3)
        lower = min(atoms, key=lambda a: a.location)
        assert lower.location < shrink_beta2.spectrum.support[0]
        assert lower.nu1_mass > 0 and lower.nu2_mass > 0

    def test_lower_atom_is_the_bottom_outlier(self, ens_beta2, shrink_beta2):
        # the root below the support is an outlier of Y Y^T: over the 20
        # acceptance instances the smallest eigenvalue sits on it, and the
        # bottom eigenvector's squared overlaps with u* and v* are its nu1
        # and nu2 masses, within criterion 4's 3 Monte-Carlo standard errors
        # (measured at -0.59, 1.24 and 1.42 standard errors)
        lower = min(shrink_beta2.find_spectral_atoms(), key=lambda a: a.location)
        for key, target in (("bottom_eig", lower.location),
                            ("bottom_u", lower.nu1_mass),
                            ("bottom_v", lower.nu2_mass)):
            x = np.array([seed[key] for seed in ens_beta2])
            sem = x.std(ddof=1) / np.sqrt(len(x))
            assert abs(x.mean() - target) / (3.0 * sem + 1e-9) <= 1.0, key


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
