"""Spectral transforms, shrinkage functions, and induced measures."""

import math
import pickle
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from rectoamp import spectra
from rectoamp.spectra import (MarchenkoPastur, Measure, ShiftedBeta,
                              ShrinkageSet, SpectraError, detection_threshold)
from tabulated import Tabulated

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


def gauss_chebyshev(lo, hi, n):
    """The n-point rule for f on [lo, hi]: the Chebyshev nodes x and the
    weights (pi/n) sqrt((hi - x)(x - lo)) that the spectrum's (pi/n) F holds."""
    x = spectra._chebyshev_nodes(lo, hi, n)
    return x, (np.pi / n) * np.sqrt(hi - x) * np.sqrt(x - lo)


class TestGaussChebyshev:
    @pytest.mark.parametrize("n", [7, 8, 2000])
    def test_rule(self, n):
        x, w = gauss_chebyshev(1.0, 3.0, n)
        assert np.all(np.diff(x) > 0) and 1.0 < x[0] and x[-1] < 3.0
        assert np.all(w > 0)

    @pytest.mark.parametrize("n", [7, 8, 2000])
    def test_even_monomials_on_the_semicircle(self, n):
        # int x^(2k) sqrt(1 - x^2) = pi (2k)! / (2^(2k+1) k! (k+1)!): the
        # rule is exact for k <= n - 2, where x^(2k) (1 - x^2) has degree
        # < 2n (at k = n - 1 the 7-node rule is off by 0.76 %)
        x, w = gauss_chebyshev(-1.0, 1.0, n)
        exact = np.pi * np.array([math.comb(2 * k, k) / (2 ** (2 * k + 1) * (k + 1))
                                  for k in range(n - 1)])
        got = (w * np.sqrt((1.0 - x) * (1.0 + x))) @ x[:, None] ** (2 * np.arange(n - 1))
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-13

    @pytest.mark.parametrize("make", [
        lambda: MarchenkoPastur(0.25), lambda: MarchenkoPastur(0.5),
        lambda: MarchenkoPastur(1.0), lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA),
        lambda: ShiftedBeta(0.5, 1.5, 1.0, 3.0, DELTA)],
        ids=["mp_0.25", "mp_0.5", "mp_1", "semicircle", "beta_0.5_1.5"])
    def test_raw_mass(self, make):
        # the density times sqrt((hi - x)(x - lo)) is analytic (MP at
        # delta < 1) or a polynomial (the others), so the mass needs no
        # renormalization
        sp = make()
        _, w = gauss_chebyshev(*sp.support, spectra.DEFAULT_QUAD_NODES)
        assert abs(np.dot(w, sp.density(sp.nodes)) - 1.0) <= 1e-13

    def test_flat_edge_converges_slowly(self):
        # a shape equal to 1 leaves a density that is nonzero at the edge:
        # there the rule falls to O(n^-2), 1.0e-7 at 2000 nodes
        sp = ShiftedBeta(1.0, 1.0, 1.0, 3.0, DELTA)
        _, w = gauss_chebyshev(*sp.support, spectra.DEFAULT_QUAD_NODES)
        assert abs(np.dot(w, sp.density(sp.nodes)) - 1.0) <= 1e-6


class TestGaussLegendre:
    def test_spectra_build_without_leggauss(self, monkeypatch):
        def unavailable(n):
            raise AssertionError("leggauss called")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", unavailable)
        for kind in ("mp", "beta"):
            assert mp_or_beta(kind, DELTA).measure().integrate(lambda _: 1.0) == pytest.approx(1.0)


def test_cold_start_imports_no_scipy(cold_start_modules):
    """A cold-start spectral build, ``MarchenkoPastur(0.5)`` in a fresh
    interpreter, loads no scipy module (its quadrature is numpy's)."""
    assert "scipy" not in cold_start_modules


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
        # S(0) = -1/(1 - delta) for delta < 1; at delta = 1 the origin is the
        # edge, where the density is infinite and S's limit from outside -inf
        assert MarchenkoPastur(DELTA).stieltjes(0.0) == pytest.approx(-2.0)
        assert MarchenkoPastur(1.0).stieltjes(0.0) == -np.inf

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
        assert mu.integrate(lambda _: 1.0) == pytest.approx(1.0, abs=1e-10)
        # Beta(1.5, 1.5) on [1, 3] is symmetric about 2
        assert mu.integrate(lambda l: l) == pytest.approx(2.0, abs=1e-10)

    def test_stieltjes_and_hilbert_oracles(self):
        sp = ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA)
        assert sp.stieltjes(4.0 + 0.5j) == pytest.approx(
            quad_stieltjes(sp, 4.0 + 0.5j), abs=1e-7)
        assert sp.hilbert(1.7) == pytest.approx(pv_hilbert(sp, 1.7), abs=1e-5)
        # symmetry point: PV integral vanishes
        assert sp.hilbert(2.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (3.0, 1.0), (1.0, 1.5), (1.2, 3.0)])
    def test_edge_correction_keeps_the_mass(self, a, b):
        # z S(z) = 1 + <lam> / z + ... tends to the mass, which the series'
        # correction at an edge where the density is finite must leave alone
        z = 1e9
        assert abs(z * ShiftedBeta(a, b, 1.0, 3.0, DELTA).stieltjes(z) - 1.0) <= 1e-8

    def test_uniform_law_transform_and_nu1_mass(self):
        # on [1, 3] S(z) = log((z - 1) / (z - 3)) / 2; the series is off by
        # 2.4e-5 relative at z = 5 and the raw nu1 mass by 7.0e-6 (a shape
        # of 1 converges slowly, ROADMAP direction 1)
        sp = ShiftedBeta(1.0, 1.0, 1.0, 3.0, DELTA)
        z = 5.0
        assert abs(sp.stieltjes(z) / (np.log((z - 1.0) / (z - 3.0)) / 2.0) - 1.0) <= 1e-4
        nu1 = ShrinkageSet(sp, 2.0).build_induced_measures().nu1
        assert abs(nu1.integrate(lambda _: 1.0) - 1.0) <= 2e-5

    @pytest.mark.parametrize("a,b,lo,hi", [
        (0.0, 1.5, 1.0, 3.0), (1.5, -1.0, 1.0, 3.0), (np.nan, 1.5, 1.0, 3.0),
        (1.5, np.inf, 1.0, 3.0), (1.5, 1.5, np.nan, 3.0), (1.5, 1.5, 1.0, np.inf),
        (5e-324, 1.5, 1.0, 3.0)],
        ids=["a_zero", "b_negative", "a_nan", "b_inf", "lo_nan", "hi_inf", "a_subnormal"])
    def test_invalid_parameters(self, a, b, lo, hi):
        # rejected before any quadrature is built
        with pytest.raises(SpectraError):
            ShiftedBeta(a, b, lo, hi, DELTA)


def beta_hilbert(a, b, lo, hi, x):
    """(1/pi) P.V. int rho(lam) / (x - lam) dlam for Beta(a, b) on [lo, hi].
    Inside the support by scipy's quad, after lam = lo + (hi - lo) sin^2 phi:
    for shapes in 1/2 + N that leaves a smooth integrand with the Cauchy
    weight 1/(phi - phi0).  Outside it by a 40-digit mpmath.quad over
    t = (lam - lo) / (hi - lo) in [0, 1/2, 1], whose tanh-sinh nodes crowd
    the edges and so resolve H's sqrt(x - hi) term next to one (scipy's
    quad missed it by up to 2.5e-7 relative and still reported
    convergence).  Returns (value, whether the quadrature met its tolerance:
    1e-12 for quad, an error estimate below 1e-14 of the value for mpmath)."""
    width, xp = hi - lo, (x - lo) / (hi - lo)
    if not 0.0 < xp < 1.0:
        with mpmath.workdps(40):
            xp = (mpmath.mpf(x) - lo) / width
            val, err = mpmath.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1) / (xp - t),
                                   [0, 0.5, 1], error=True)
            val /= mpmath.beta(a, b) * width * mpmath.pi
            return float(val), err <= 1e-14 * abs(val)
    beta_fn = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    g = lambda p: 2.0 * np.sin(p) ** (2 * a - 1) * np.cos(p) ** (2 * b - 1) / (beta_fn * width)
    phi0 = math.asin(math.sqrt(xp))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        # 1 / (xp - sin^2 p) = (p - phi0) / (sin(phi0 - p) sin(phi0 + p)) / (p - phi0)
        val = integrate.quad(lambda p: -g(p) / np.sinc((phi0 - p) / np.pi)
                             / np.sin(phi0 + p), 0.0, np.pi / 2, weight="cauchy",
                             wvar=phi0, limit=500, epsabs=1e-12, epsrel=1e-12)[0]
    return val / np.pi, not caught


HALF_SHAPES = st.sampled_from([0.5, 1.5, 2.5, 3.5])


@settings(max_examples=40, deadline=None)
@given(a=HALF_SHAPES, b=HALF_SHAPES, where=st.sampled_from(["node", "off_node", "outside"]),
       node=st.integers(0, spectra.DEFAULT_QUAD_NODES - 1), u=st.floats(0.0, 1.0))
@example(a=0.5, b=1.5, where="node", node=0, u=0.0)
@example(a=0.5, b=1.5, where="off_node", node=0, u=0.3)
@example(a=1.5, b=1.5, where="outside", node=0, u=0.5)
# just above the upper edge, where F = rho s vanishes
@example(a=0.5, b=1.5, where="outside", node=0, u=1e-15)
@example(a=0.5, b=1.5, where="outside", node=0, u=1e-14)
@example(a=2.5, b=1.5, where="outside", node=0, u=2.220446049250313e-16)
# x = 1 - 2^-53, just below the lower edge, where w rounds to -1
@example(a=1.5, b=1.5, where="outside", node=1, u=1.0 - 2.0 ** -52)
@example(a=0.5, b=1.5, where="outside", node=1, u=1.0 - 2.0 ** -52)
def test_hilbert_matches_cauchy_quadrature(a, b, where, node, u):
    # the Chebyshev series of rho s against an independent principal value,
    # at the quadrature nodes, between them and outside the support.  In
    # 1500 draws, 30 % of them at u in {0, 2^-52, 1e-15, 1e-14, 1 - 2^-52, 1},
    # the oracle converged on 1394 of the 1421 off the edges (all 464
    # outside), and the two agreed to 1.2e-12 of max(|H|, 0.1) on the
    # support and to 5.1e-13 outside it.  Next to an edge where F vanishes
    # the series divides out that edge's root (SpectrumModel says how):
    # summed as is, it was off by 3e-10 to 3e-9 relative at x = 3 + 3u,
    # u <= 1e-14, and by 1.5e-8 at x = 1 - 2^-53 (Beta(3/2, 3/2))
    sp = ShiftedBeta(a, b, 1.0, 3.0, DELTA)
    x = {"node": sp.nodes[node], "off_node": 1.0 + 2.0 * u,
         "outside": (0.5 + 0.5 * u) if node % 2 else (3.0 + 3.0 * u)}[where]
    want, converged = beta_hilbert(a, b, 1.0, 3.0, x)
    assume(converged and x not in (1.0, 3.0))
    assert sp.hilbert(x) == pytest.approx(want, rel=1e-10, abs=1e-11)


def test_tabulated_hilbert_matches_cauchy_quadrature():
    # a piecewise linear density: F = rho s has kinks, so its coefficients
    # decay only like k^-2 and the series keeps all 2000; quad runs cell by
    # cell, with the Cauchy weight in each.  Largest difference 7.4e-6, at
    # the nodes next to the edges (the former rule: 1.7e-5 at node 17, up to
    # 4.0e-4 at other nodes, and 4.4e-7 next to the edges)
    grid = np.linspace(1.0, 3.0, 201)
    sp = Tabulated(grid, np.sin(np.linspace(0.0, np.pi, 201)), DELTA)
    dens = lambda l: float(sp.density(np.asarray(l, dtype=float)))
    points = np.concatenate((sp.nodes[[0, 1, 17, 1000, 1998, 1999]],
                             [1.0005, 1.3333, 1.7071, 2.2361, 2.7183, 2.9995]))
    for x in points:
        want = -sum(integrate.quad(dens, l, r, weight="cauchy", wvar=x, epsabs=1e-14,
                                   epsrel=1e-13)[0]
                    for l, r in zip(grid[:-1], grid[1:])) / np.pi
        assert sp.hilbert(x) == pytest.approx(want, rel=0, abs=1e-5), x


def test_hilbert_at_an_infinite_density_edge():
    # Beta(1/2, 2) on [1, 3]: rho_t = (3/4) t^(-1/2) (1 - t), and
    # (1/(pi L)) P.V. int rho_t / (x' - t) dt tends to 3 / (2 pi) as x'
    # decreases to 0, which the series gives at the edge itself (a finite
    # interior limit, not the former 0)
    sp = ShiftedBeta(0.5, 2.0, 1.0, 3.0, 1.0)
    assert sp.hilbert(1.0) == pytest.approx(3.0 / (2.0 * np.pi), rel=0, abs=1e-10)
    # the mirror image, Beta(2, 1/2), has H(3) = -H(1) of the law above
    sp = ShiftedBeta(2.0, 0.5, 1.0, 3.0, 1.0)
    assert sp.hilbert(3.0) == pytest.approx(-3.0 / (2.0 * np.pi), rel=0, abs=1e-10)


def beta_stieltjes(a, b, lo, hi):
    """S(lambda) of Beta(a, b) on [lo, hi] in mpmath, off the support:
    2F1(1, a; a + b; 1/x) / (x L), x = (lambda - lo)/L, with L exact: next to
    an edge the rounding of a float hi - lo would move x by more than S's
    rounding."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)

    def s(lam):
        x = (lam - lo) / (hi - lo)
        return mpmath.hyp2f1(1, a, a + b, 1 / x) / (x * (hi - lo))
    return s


def beta_c_transform(a, b, lo, hi, delta):
    """C(lambda) = delta lambda S^2 + (1 - delta) S of Beta(a, b) on [lo, hi] in
    mpmath, off the support, from ``beta_stieltjes``."""
    stieltjes, delta = beta_stieltjes(a, b, lo, hi), mpmath.mpf(delta)

    def c(lam):
        s = stieltjes(lam)
        return delta * lam * s ** 2 + (1 - delta) * s
    return c


# (a, b, edge) for each edge where the density of Beta(a, b) on [1, 3] vanishes
VANISHING_EDGES = [(0.5, 1.5, "hi"), (1.5, 1.5, "lo"), (1.5, 1.5, "hi"), (2.5, 1.5, "lo"),
                   (2.5, 1.5, "hi"), (1.5, 0.5, "lo")]
FLAT_EDGE = pytest.mark.xfail(strict=True, reason=(
    "Beta(5/2, 3/2) has S' finite at its lower edge, so the derivative of the "
    "q-series, which the complex step reads, has a root at q = -1 that the "
    "coefficients hold only to rounding, and q / r amplifies it: 9.7e-12 and "
    "2.3e-10 relative at 1 - 1e-10, 1 - 1e-12"))


@pytest.mark.parametrize("a,b,edge,k", [
    pytest.param(a, b, edge, k, marks=FLAT_EDGE if (a, edge) == (2.5, "lo") and k >= 10 else ())
    for a, b, edge in VANISHING_EDGES for k in range(2, 13, 2)])
def test_c_derivative_next_to_a_vanishing_edge(a, b, edge, k):
    # C' against a 40-digit mpmath.diff of C.  C' is the complex step of C
    # through the divided series (SpectrumModel): an S' summed undivided over
    # r^3 was off by up to 5.1e-5 (semicircle, 3 + 1e-12), 6.8e-5
    # (1 - 1e-12) and 15 (Beta(5/2, 3/2), 1 - 1e-12)
    sp = ShiftedBeta(a, b, 1.0, 3.0, DELTA)
    lam = 3.0 + 10.0 ** -k if edge == "hi" else 1.0 - 10.0 ** -k
    with mpmath.workdps(40):
        want = mpmath.diff(beta_c_transform(a, b, 1.0, 3.0, DELTA), mpmath.mpf(lam))
        assert abs(sp.c_derivative(lam) / want - 1) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: MarchenkoPastur(0.5), lambda: MarchenkoPastur(1.0),
    lambda: ShiftedBeta(1.5, 1.5, 1.0, 3.0, DELTA), lambda: ShiftedBeta(2.5, 1.5, 1.0, 3.0, DELTA),
    lambda: ShiftedBeta(1.5, 0.5, 1.0, 3.0, DELTA)],
    ids=["mp_0.5", "mp_1", "semicircle", "beta_2.5_1.5", "beta_1.5_0.5"])
def test_c_derivative_rejects_the_closed_support(make):
    # at an edge a bare complex step returns about 1e50, and S' divides by 0
    sp = make()
    lo, hi = sp.support
    for lam in (lo, 0.5 * (lo + hi), hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectraError, match=f"lambda = {lam}"):
                sp.c_derivative(lam)


@settings(max_examples=50, deadline=None)
@given(a=st.sampled_from([0.5, 1.5, 2.5]), b=st.sampled_from([0.5, 1.5, 2.5]),
       delta=st.floats(0.05, 1.0), lo=st.floats(0.05, 3.0), width=st.floats(0.1, 5.0),
       above=st.booleans(), k=st.floats(0.0, 6.0))
# lambda = 5.6e-16 and 0: a step through c_transform's z S (delta S + (1 - delta)/z)
# cancels in Im near 0, and gave 0.143 for -0.0152 at the first
@example(a=0.5, b=0.5, delta=0.5, lo=1.0, width=1.0, above=False, k=2.220446049250313e-16)
@example(a=2.5, b=1.5, delta=0.5, lo=1.0, width=2.0, above=False, k=0.0)
# lambda = 2.1 + 1e-6 next to a flat edge: a node of [2, 2.1] rounds by 21 ulps
# of w, and a series read at the exact nodes gave C' off by 2.0e-12
@example(a=2.5, b=2.5, delta=1.0, lo=2.0, width=0.1, above=True, k=5.0)
def test_c_derivative_matches_the_hypergeometric_form(a, b, delta, lo, width, above, k):
    # C' = delta S^2 + (2 delta lambda S + 1 - delta) S' against S and S' of
    # the 40-digit 2F1 form, to 1e-12 of the sum of the terms' magnitudes:
    # below lo C' can cross 0, where a relative bound means nothing.  In 1400
    # draws, half of them on [2, 2.1] or [3, 3.1], the worst was 3.1e-13; a
    # density taking 1 - t by subtraction left up to 9.8e-7 where its width is
    # no power of two
    hi = lo + width
    sp = ShiftedBeta(a, b, lo, hi, delta)
    lam = hi + 10.0 ** -k * width if above else lo - 10.0 ** -k * lo
    with mpmath.workdps(40):
        stieltjes, x = beta_stieltjes(a, b, lo, hi), mpmath.mpf(lam)
        s, ds = stieltjes(x), mpmath.diff(stieltjes, x)
        want = delta * s ** 2 + (2 * delta * x * s + 1 - delta) * ds
        scale = delta * s ** 2 + abs(2 * delta * x * s + 1 - delta) * abs(ds)
        assert abs(sp.c_derivative(lam) - want) <= 1e-12 * scale


@pytest.mark.parametrize("a,b,lo,hi", [(1.5, 0.5, 1.0, 3.0), (0.5, 1.5, 1.0, 3.0),
                                       (2.5, 0.5, 2.0, 7.0), (0.5, 0.5, 2.0, 7.0)],
                         ids=["1.5-0.5", "0.5-1.5", "2.5-0.5-on-2-7", "0.5-0.5-on-2-7"])
def test_stieltjes_next_to_an_infinite_density_edge(a, b, lo, hi):
    # S against the 40-digit 2F1 form.  The series is divided by the mass of
    # its own node values: next to an infinite edge a mass from other node
    # weights differs by 1e-10, which left a uniform relative error in S of
    # 3.2e-13 (Beta(3/2, 1/2)) and 4.9e-14 (Beta(1/2, 3/2)).  On [2, 7],
    # whose width is no power of two, a density taking 1 - t by subtraction
    # was off by 8e-12 relative next to hi; where it is infinite there, that
    # noise kept all coefficients, and S was off by up to 1.6e-11
    sp = ShiftedBeta(a, b, lo, hi, DELTA)
    with mpmath.workdps(40):
        want = beta_stieltjes(a, b, lo, hi)
        for z in (lo / 2, lo - 1e-2, lo - 1e-6, lo - 1e-12, hi + 1e-12, hi + 1e-6,
                  hi + 1e-2, 2 * hi, 5 * hi):
            assert abs(sp.stieltjes(z) / want(mpmath.mpf(z)) - 1) <= 1e-15, z


def test_c_transform_of_an_array_with_an_infinite_edge():
    # a real array off the support has a real S, so C at the infinite upper
    # edge is +inf with no complex inf * 0 in z S
    sp = ShiftedBeta(0.5, 0.5, 1.0, 3.0, DELTA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp.c_transform(np.array([3.0, 4.0]))
    assert got.dtype == float
    assert got[0] == np.inf and got[1] == sp.c_transform(4.0)


@pytest.mark.parametrize("points", ["nodes", "linspace_1000"])
def test_hilbert_memory_is_bounded(points):
    # the series holds a few complex vectors of the points' length: a
    # traced peak of 0.28 MB at the 2000 nodes and 0.14 MB at 1000 points
    # (a points x nodes quadrature would hold 64 MB and 32 MB)
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
        assert tab.measure().integrate(lambda _: 1.0) == pytest.approx(1.0, abs=1e-9)


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


class TestMeasure:
    def test_atoms_and_complex(self):
        m = Measure(np.array([1.0]), np.array([0.5]), atoms=((3.0, 0.5),))
        assert m.integrate(lambda _: 1.0) == pytest.approx(1.0)
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
        n1, n2, n3, den = sh.numerators(lam)
        assert np.allclose(n1 / den, 1.0)
        assert np.allclose(n2 / den, DELTA)
        assert np.allclose(n3 / den, 0.0)
        assert np.allclose(den, 1.0)

    def test_square_case_phi2_equals_phi1(self):
        sh = ShrinkageSet(MarchenkoPastur(1.0), 1.5)
        lam = np.array([0.7, 1.5, 3.0])
        n1, n2, _, den = sh.numerators(lam)
        assert np.allclose(n1 / den, n2 / den)

    def test_plemelj_denominator_oracle(self, mp05):
        # |1 - theta^2 C(x - i eps)|^2 approaches the two-square expansion
        sh = ShrinkageSet(mp05, 2.0)
        for x in (0.5, 1.0, 2.0):
            oracle = abs(1 - 4.0 * mp05.c_transform(complex(x, -1e-8))) ** 2
            assert sh.numerators(x)[3][0] == pytest.approx(oracle, rel=1e-4)

    def test_negative_lambda_rejected(self, shrink_mp2):
        with pytest.raises(SpectraError):
            shrink_mp2.numerators(np.array([-0.1]))

    @pytest.mark.parametrize("make,theta,lam", [
        (lambda: ShiftedBeta(1.0, 0.5, 0.0, 1.0, 1.0), 1.0, 1.0),
        (lambda: MarchenkoPastur(1.0), 2.0, 0.0)], ids=["beta_upper_edge", "mp_1_origin"])
    def test_infinite_density_point_rejected(self, recwarn, make, theta, lam):
        # the numerators there would be inf or nan, with a RuntimeWarning
        # from the density; the error names lambda instead
        sh = ShrinkageSet(make(), theta)
        with pytest.raises(SpectraError, match=f"at lambda = {lam}, where the density "
                                               "is infinite"):
            sh.numerators(np.array([0.5, lam]))
        assert not recwarn.list


class TestAtoms:
    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.05, 1.0), theta=st.floats(-0.5, 6.0).map(lambda x: 10.0 ** x))
    @example(delta=0.5, theta=2.0)
    def test_mp_atom_location_and_masses(self, delta, theta):
        # the closed forms of Benaych-Georges & Nadakuditi (J. Multivariate
        # Anal. 111, 2012) from 1.1 to 1e6 times the threshold delta^(1/4):
        # far out the root is bisected on C where the textbook MP form of S
        # cancelled (2.5e-4 off at 1e6 theta_c)
        assume(1.1 <= theta / delta ** 0.25 <= 1e6)
        sh = ShrinkageSet(MarchenkoPastur(delta), theta)
        atoms = sh.find_spectral_atoms()
        assert len(atoms) == 1
        atom, t2 = atoms[0], theta ** 2
        assert atom.location > sh.spectrum.support[1]
        assert atom.location == pytest.approx((1 + t2) * (delta + t2) / t2, rel=1e-14, abs=0)
        assert atom.nu1_mass == pytest.approx((t2 ** 2 - delta) / (t2 ** 2 + delta * t2),
                                              rel=1e-13, abs=0)
        assert atom.nu2_mass == pytest.approx((t2 ** 2 - delta) / (t2 ** 2 + t2),
                                              rel=1e-13, abs=0)

    def test_subcritical_no_atoms(self, mp05):
        sh = ShrinkageSet(mp05, 0.5)   # below the detection threshold
        assert sh.find_spectral_atoms() == []

    def test_detection_threshold(self):
        # C at the edge itself: MP's threshold is delta^(1/4) to rounding
        for delta in (0.25, 0.5, 1.0):
            assert detection_threshold(MarchenkoPastur(delta)) == pytest.approx(
                delta ** 0.25, rel=1e-13, abs=0)
        # the semicircle on [1, 3] has S(3) = 2, so C(3) = 2 + 10 delta
        for delta, c_edge in ((0.5, 7.0), (1.0, 12.0)):
            assert detection_threshold(ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta)) == \
                pytest.approx(1.0 / np.sqrt(c_edge), rel=1e-13, abs=0)

    def test_infinite_density_upper_edge(self):
        # Beta(3/2, 1/2) on [1, 3]: C is +inf at the upper edge, so the
        # threshold is 0 and every theta > 0 has an outlier above the support.
        # On 6 instances of RI noise (seeds 1-6, 1000 x 2000, theta = 0.3)
        # the top eigenvalue of Y Y^T read 3.1818 +- 0.0134 and its
        # eigenvector's squared overlaps with u* and v* 0.386 +- 0.015 and
        # 0.219 +- 0.010
        sp = ShiftedBeta(1.5, 0.5, 1.0, 3.0, DELTA)
        assert detection_threshold(sp) == 0.0
        atoms = ShrinkageSet(sp, 0.3).find_spectral_atoms()
        assert len(atoms) == 1
        assert atoms[0].location == pytest.approx(3.178732, abs=1e-6)
        assert atoms[0].nu1_mass == pytest.approx(0.382430, abs=1e-6)
        assert atoms[0].nu2_mass == pytest.approx(0.215360, abs=1e-6)

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
        # above theta_c the root sits 3e-12 (mp) or 5.8e-13 (beta) above the
        # edge, below where a bracket from hi + 1e-9 hi would start.  The
        # masses vanish like the distance to theta_c: nu1 holds 2.3e-6 (mp)
        # and 1.2e-6 (beta) there, where a quadrature C' held 2.7e-4 (beta)
        sp = mp_or_beta(kind, delta)
        hi, theta_c = sp.support[1], detection_threshold(sp)
        upper = [a for a in ShrinkageSet(sp, theta_c * (1 + 1e-6)).find_spectral_atoms()
                 if a.location > hi]
        assert len(upper) == 1 and upper[0].nu1_mass > 0 and upper[0].nu2_mass > 0
        assert upper[0].nu1_mass <= 1e-5
        # closer still the root rounds to the edge, where C' is infinite:
        # that root is no atom, and no division by zero is attempted
        upper = [a for a in ShrinkageSet(sp, theta_c * (1 + 1e-12)).find_spectral_atoms()
                 if a.location > hi]
        assert upper == []

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
    # a shape below 1/2 at the upper edge leaves the series a residue at the
    # lower one, unless the coefficients are made to vanish there
    @example(delta=1.0, theta=1.0, a=2.0, b=0.375, lo=1.0, width=1.0)
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


SUM_RULE_LAWS = {
    "mp": MarchenkoPastur,
    "semicircle": lambda delta: ShiftedBeta(1.5, 1.5, 1.0, 3.0, delta),
    "beta_0.5_1.5": lambda delta: ShiftedBeta(0.5, 1.5, 1.0, 3.0, delta),
    "beta_2.5_1.5": lambda delta: ShiftedBeta(2.5, 1.5, 1.0, 3.0, delta)}
# Beta(5/2, 3/2) on [1, 3] has lo E[1/(lam - lo)]^2 = C(lo) = 1 at delta = 1,
# so theta = 1 is its lower-edge threshold.  Just below it nu1 carries a
# resonance narrower than the node spacing next to the lower edge, which
# holds the mass (0.2) that the lower atom takes above it, and the node rule
# misses it: nu1(R) = 0.8, and 0.91 at theta = 0.999
RESONANCE = pytest.mark.xfail(strict=True, reason="unresolved resonance at the "
                              "lower-edge threshold (nu1 mass 0.8)")
SUM_RULE_CASES = [
    pytest.param(law, delta, theta, id=f"{law}-{delta}-{theta}",
                 marks=RESONANCE if (law, delta, theta) == ("beta_2.5_1.5", 1.0, 1.0) else ())
    for law, deltas in (("mp", (0.25, 0.5, 1.0)), ("semicircle", (0.5, 1.0)),
                        ("beta_0.5_1.5", (0.5, 1.0)), ("beta_2.5_1.5", (0.5, 1.0)))
    for delta in deltas for theta in (1.0, 2.0, 3.0)]


class TestInducedMeasures:
    @pytest.mark.parametrize("law,delta,theta", SUM_RULE_CASES)
    def test_raw_sum_rules(self, law, delta, theta):
        # with no renormalization of the weights: nu1 and nu2 are probability
        # measures, nu3 has mass 0 and first moment theta sqrt(delta) /
        # (1 + delta), and the Stieltjes transforms of nu1 and nu2 follow
        # from the spectrum's, to rounding since the node weights and the
        # series share one mass (largest seen 4.9e-15, MP at delta = 1 and
        # theta = 3)
        sp = SUM_RULE_LAWS[law](delta)
        meas = ShrinkageSet(sp, theta).build_induced_measures()
        one = lambda _: 1.0
        errors = [meas.nu1.integrate(one) - 1.0, meas.nu2.integrate(one) - 1.0,
                  meas.nu3.integrate(one),
                  meas.nu3.integrate(lambda s: s) - theta * np.sqrt(delta) / (1 + delta)]
        for z in (sp.support[1] + 1.0 + 0.7j, -0.5 + 0.3j):
            s_mu, c = sp.stieltjes(z), sp.c_transform(z)
            errors += [meas.nu1.integrate(lambda l: 1.0 / (z - l)) - s_mu / (1 - theta ** 2 * c),
                       meas.nu2.integrate(lambda l: 1.0 / (z - l))
                       - (delta * s_mu + (1 - delta) / z) / (1 - theta ** 2 * c)]
        assert np.max(np.abs(errors)) <= 1e-14

    @pytest.mark.xfail(strict=True, reason="MP's node rule with the pole of 1/lambda "
                       "just below the support: the raw nu1 mass at delta = 0.999, "
                       "theta = 2 is off by -5.96e-6 (ROADMAP direction 19(c))")
    def test_raw_nu1_mass_near_the_square(self):
        meas = ShrinkageSet(MarchenkoPastur(0.999), 2.0).build_induced_measures()
        defect = meas.nu1.integrate(lambda _: 1.0) - 1.0
        assert abs(defect) <= 1e-12, f"raw nu1 mass defect {defect:.3g}"

    def test_masses(self, shrink_mp2):
        meas = shrink_mp2.build_induced_measures()
        one = lambda _: 1.0
        assert meas.nu1.integrate(one) == pytest.approx(1.0, abs=1e-8)
        assert meas.nu2.integrate(one) == pytest.approx(1.0, abs=1e-8)
        assert meas.nu3.integrate(one) == pytest.approx(0.0, abs=1e-8)
        assert dict(meas.nu2.atoms)[0.0] == pytest.approx(0.1, abs=1e-9)

    def test_nu3_first_moment_identity(self, shrink_mp2, shrink_beta2):
        # <sigma>_nu3 = theta sqrt(delta) / (1 + delta)
        expect = 2.0 * np.sqrt(DELTA) / (1 + DELTA)
        for sh in (shrink_mp2, shrink_beta2):
            meas = sh.build_induced_measures()
            assert meas.nu3.integrate(lambda s: s) == pytest.approx(
                expect, abs=1e-12)

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
        assert s1 == pytest.approx(s_mu / (1 - th ** 2 * c), abs=1e-12)

    def test_nu3_stieltjes_identity(self, shrink_mp2):
        # S_nu3(z) = (sqrt(d)/(1+d)) theta C(z^2) / (1 - theta^2 C(z^2))
        sp, th = shrink_mp2.spectrum, shrink_mp2.theta
        meas = shrink_mp2.build_induced_measures()
        z = 3.1
        c = sp.c_transform(z ** 2)
        expect = (np.sqrt(DELTA) / (1 + DELTA)) * th * c / (1 - th ** 2 * c)
        got = meas.nu3.integrate(lambda s: 1.0 / (z - s))
        assert got == pytest.approx(expect, abs=1e-8)
