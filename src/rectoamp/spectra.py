"""Analytic spectral engine for the noise spectrum and its derived objects.

Everything downstream (matrix denoisers, state evolution) is built from a
handful of deterministic transforms of the limiting spectral measure of the
noise Gram matrix: its Stieltjes and Hilbert transforms (series in the
Chebyshev coefficients of its node values, ``SpectrumModel``), the rectangular
C-transform, three shrinkage functions, and the induced signal-eigenspace
measures (densities plus point masses at outlier locations).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_QUAD_NODES = 2000
# Each side of the support holds at most one outlier root, so each is
# bisected in one bracket: [eps, lo - eps] below the lower edge and
# [hi, hi + ROOT_MARGIN_FACTOR (1 + theta^2)] above the upper one
# (ShrinkageSet.find_spectral_atoms says why).
ROOT_MARGIN_FACTOR = 10.0
# How far back (in floats) _bisect looks for the first sign change of g, so
# that its root does not depend on the bracket it was given.
ROOT_SNAP_ULPS = 16
# No search reads this any more: the benchmark's spectra.scan_mb metric
# (perfbench/pipeline.py) still sizes the former lower-edge sign scan from
# it, so it goes when that metric does.
ROOT_SCAN_POINTS = 10_000


class SpectraError(Exception):
    pass


def _bisect(g, a: float, b: float) -> float:
    """Root of g in [a, b], where g(a) and g(b) differ in sign bit: halve
    the bracket until its midpoint rounds to an endpoint.

    Rounding makes the sign of g flicker over a few floats around the root,
    so where the halving ends depends on the bracket.  So the two floats
    whose midpoint is returned are the first pair, counted from
    ROOT_SNAP_ULPS floats back towards a, across which the sign bit of g
    changes: the same pair for every bracket of the root while the flicker
    spans fewer floats.
    """
    start = a
    neg_a = np.signbit(g(a))
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if np.signbit(g(mid)) == neg_a:
            a = mid
        else:
            b = mid
    for _ in range(ROOT_SNAP_ULPS):
        if a == start:
            break
        a = math.nextafter(a, start)
    # ends at b at the latest, whose sign bit differs from g(start)'s
    while np.signbit(g(math.nextafter(a, b))) == neg_a:
        a = math.nextafter(a, b)
    return 0.5 * (a + math.nextafter(a, b))


@dataclass(frozen=True)
class Measure:
    """Finite measure on the real line: quadrature density part plus atoms.

    ``nodes``/``weights`` discretize the absolutely continuous part (weights
    already include the density), ``atoms`` is a tuple of (location, mass)
    pairs.  Masses may be signed.
    """

    nodes: np.ndarray
    weights: np.ndarray
    atoms: tuple = ()

    def integrate(self, f):
        """<f> = quadrature over the density part + sum of mass * f(loc)."""
        total = np.sum(self.weights * np.asarray(f(self.nodes)))
        for loc, mass in self.atoms:
            total += mass * np.asarray(f(np.asarray(loc))).reshape(()).item()
        total = complex(total)
        return total.real if total.imag == 0 else total


def _chebyshev_nodes(lo: float, hi: float, n: int):
    """The n first-kind Chebyshev points of [lo, hi], ascending.  Weighing F =
    f sqrt((hi - x)(x - lo)) there by pi/n integrates f exactly when F is a
    polynomial of degree < 2n (Abramowitz & Stegun 25.4.38), and geometrically
    fast when F is analytic (MP at every delta, the semicircle Beta(3/2, 3/2))."""
    t = (np.arange(n, 0, -1) - 0.5) * (np.pi / n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(t)


def _chebyshev_coefficients(values, w, vanishing):
    """Chebyshev coefficients of the ``_chebyshev_nodes`` values by a
    DCT-II, chopped at 1e-14 of the largest (Aurentz & Trefethen, ACM TOMS
    43, 2017), and made to vanish at the ends flagged in ``vanishing``, where
    S's 1/r would amplify the interpolant's residue (1e-7 for a shape < 1/2).
    The values are taken at the rounded nodes, which lie at w: the DCT reads
    them at the exact points, and one step of iterative refinement takes the
    residue at w out again."""
    n = values.size
    shift = np.exp(-0.5j * np.pi * np.arange(n) / n) / n

    def dct(v):
        a = np.real(np.fft.rfft(np.concatenate((v[::-1], v)))[:n] * shift)
        a[0] /= 2.0
        return a

    def chopped(a):
        big = np.flatnonzero(np.abs(a) > 1e-14 * np.max(np.abs(a)))
        return a[:max(3, big[-1] + 1 if big.size else n)]

    # a node rounds by up to (hi / L) ulps of w: on [2, 2.1] the unrefined
    # series held F' = 0 at Beta(5/2, 5/2)'s edges, where C' is finite, only
    # to 9e-15 of sum k^2 |a_k|, and C' at hi + 1e-7 was off by 6.2e-12
    a = chopped(dct(values))
    a = chopped(np.pad(a, (0, n - a.size)) + dct(values - np.polynomial.chebyshev.chebval(w, a)))
    ends = np.where(vanishing, [a @ (-1.0) ** np.arange(a.size), a.sum()], 0.0)
    # T_1 and T_2 have zero mean under the Chebyshev weight, so a_0, and
    # with it the mass pi a_0, stays put
    a[1:3] -= [0.5 * (ends[1] - ends[0]), 0.5 * (ends[0] + ends[1])]
    return a


def _horner(coefs, q):
    total = np.zeros_like(q)
    for coef in coefs[::-1]:
        total = total * q + coef
    return total


class SpectrumModel:
    """Limiting spectral law of the noise Gram matrix, with aspect ratio.

    The measure must be a probability measure with a Hölder-continuous
    density on a compact subset of the positive half-line.  A subclass
    defines ``_density(lam)`` on the support, and optionally ``_stieltjes``.

    One node representation holds the law: F = rho s at the n Chebyshev
    nodes, s = sqrt((hi - x)(x - lo)), with the coefficients a_k of F =
    sum_k a_k T_k(w), w = (x - c)/R, L = 2R (few terms when F is a polynomial:
    Beta shapes in 1/2 + N).  The mass is pi a_0, (pi/n) sum F to rounding,
    and the measure's node weights (pi/n) F and the series are divided by it.  With
    r = sqrt(w - 1) sqrt(w + 1), q = w - r at z (Mason & Handscomb, Chebyshev
    Polynomials, 2003) S(z) = (pi / R) sum_k a_k q^k / r.
    Where F vanishes at an edge, the series has a root there, q = 1 (upper)
    or q = -1 (lower), which is divided out once: with e = sqrt(w - 1),
    p = sqrt(w + 1), r = e p and d = p - e = 2/(p + e), q - 1 = -e d and
    q + 1 = p d, so the root cancels its square root and nothing divides 0
    by 0.  The one expression holds off the support, on it (the boundary
    value, whose real part is pi H) and at an edge where F vanishes.  Where
    the density is infinite at an edge, S there is its limit from outside,
    +inf at hi and -inf at lo, and H its limit from inside.
    """

    def __init__(self, delta: float, support):
        if not 0.0 < delta <= 1.0:
            raise SpectraError(f"aspect ratio must be in (0, 1], got {delta}")
        lo, hi = float(support[0]), float(support[1])
        if not 0.0 <= lo < hi < np.inf:
            raise SpectraError(f"invalid support [{lo}, {hi}]")
        self.delta = float(delta)
        self.support = (lo, hi)
        self.nodes = _chebyshev_nodes(lo, hi, DEFAULT_QUAD_NODES)
        if not (lo <= self.nodes[0] and self.nodes[-1] <= hi):
            raise SpectraError(f"support [{lo}, {hi}] too narrow: at its width {hi - lo:.3g} "
                               "the quadrature nodes round outside it")
        with np.errstate(all="ignore"):     # nan on a degenerate support
            density = np.asarray(self._density(self.nodes), dtype=float)
            # F = rho s vanishes at an edge where rho is finite; s is taken at
            # the rounded nodes, as rho is
            vanishing = np.isfinite(self._density(np.array([lo, hi])))
            f = density * np.sqrt(hi - self.nodes) * np.sqrt(self.nodes - lo)
            self._cheb = _chebyshev_coefficients(f, self._scaled(self.nodes)[0], vanishing)
        mass = float(np.pi * self._cheb[0])
        # tolerance accommodates Beta shapes below 1/2, whose t^(a - 1)
        # edge the rule resolves slowly (3.5e-3 at a = 0.3)
        if not abs(mass - 1.0) <= 5e-3:
            raise SpectraError(f"density on the support [{lo}, {hi}] does not integrate "
                               f"to 1 (got {mass:.8f})")
        self._weights = (np.pi / f.size) * f / mass
        self._cheb = self._cheb / mass
        self._vanishing, self._divided = tuple(vanishing), self._cheb
        for root, vanish in zip((-1.0, 1.0), vanishing):    # S's series / (q - root)
            if vanish:
                sign = root ** np.arange(self._divided.size)
                self._divided = np.cumsum((sign * self._divided)[::-1])[::-1][1:] * sign[1:]
        with np.errstate(over="ignore"):    # the shrinkage numerators square both
            squares = np.square([density, self.hilbert(self.nodes)])
        if not np.isfinite(squares).all():
            raise SpectraError(f"the density or its Hilbert transform on the support "
                               f"[{lo}, {hi}] has no finite square at the quadrature nodes")

    # -- basic evaluators ---------------------------------------------------

    def density(self, x):
        """Density of the measure; zero outside the support."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = self._density(x[inside])
        return out if out.ndim else float(out)

    def stieltjes(self, z):
        """S(z) = int (z - lam)^-1 dmu(lam), z off the support."""
        z = np.asarray(z)
        if np.any(self._on_support_real(z)):
            raise SpectraError("stieltjes transform undefined on the support")
        s = self._stieltjes(z)
        # real off the support, so that z S stays real where S is infinite
        if np.all(np.isreal(z)):
            s = np.real(s)
        return s.item() if s.ndim == 0 else s

    def _on_support_real(self, z):
        z = np.asarray(z)
        lo, hi = self.support
        real = np.isreal(z)
        x = np.real(z)
        return real & (x > lo) & (x < hi)

    def _scaled(self, z):
        """(w, e, p, q) at z: w is exactly -1 and 1 at the edges, e = sqrt(w - 1) and
        p = sqrt(w + 1) come from z - hi and z - lo, which are exact next to an edge,
        and q = w - r = 1/(w + r), r = e p, which does not cancel at large |z|."""
        lo, hi = self.support
        w = ((z - lo) - (hi - z)) / (hi - lo)
        e, p = (np.sqrt(2.0 * (z - edge) / (hi - lo) + 0j) for edge in (hi, lo))
        return w, e, p, 1.0 / (w + e * p)

    def _stieltjes(self, z):
        w, e, p, q = self._scaled(np.asarray(z))
        low, up = self._vanishing
        d = 2.0 / (p + e)
        with np.errstate(divide="ignore", invalid="ignore"):
            # (q + 1)^low (q - 1)^up / r; at an edge where the density is
            # infinite 1/e or 1/p is 1/0 and leaves nan, and the limit from
            # outside is w inf: +inf at hi, -inf at lo
            vals = (2.0 * np.pi / np.ptp(self.support) * _horner(self._divided, q)
                    * (d if low else 1.0 / p) * (-d if up else 1.0 / e))
            return np.where(np.isnan(vals), np.real(w) * np.inf, vals)

    def hilbert(self, x):
        """(1/pi) P.V. int mu(lam) / (x - lam) dlam = Re S(x) / pi on all of R.
        At an edge where the density, and so S, is infinite, it is the limit
        from inside, -(2/L) sum_k a_k U_{k-1}(+-1) with U_{k-1}(+-1) =
        (+-1)^(k-1) k."""
        x = np.asarray(x, dtype=float)
        out = np.real(self._stieltjes(x)) / np.pi
        k = np.arange(self._cheb.size)
        for edge, sign, vanish in zip(self.support, (-1.0, 1.0), self._vanishing):
            if not vanish:
                limit = -2.0 / np.ptp(self.support) * np.sum(k * self._cheb * sign ** (k - 1))
                out = np.where(x == edge, limit, out)
        return out if out.ndim else float(out)

    def c_transform(self, z):
        """Rectangular composite transform z*S(z)*(delta*S(z) + (1-delta)/z)."""
        z = np.asarray(z)
        if np.any(z == 0):
            raise SpectraError("c_transform undefined at z = 0")
        s = self.stieltjes(z)
        return z * s * (self.delta * s + (1.0 - self.delta) / z)

    def c_derivative(self, lam: float) -> float:
        """dC/dlambda off the closed support, where C is analytic and real: the complex
        step Im C(lam + ih) / h (Squire & Trapp, SIAM Rev. 40, 1998) subtracts nothing."""
        lo, hi = self.support
        if lo <= lam <= hi:
            raise SpectraError(f"C' undefined at lambda = {lam}, on the support [{lo}, {hi}]")
        # h's O(h^2) error is far below rounding: ShrinkageSet._atom_at reads C' at roots,
        # each a float or more off an edge, and a support narrower than ~1e-15 hi is refused
        z = lam + 1e-100j * (hi - lo)
        # C = S (delta z S + 1 - delta): c_transform's (1 - delta)/z would cancel in Im near 0
        s = self.stieltjes(z)
        return float(np.imag(s * (self.delta * z * s + 1.0 - self.delta))) / z.imag

    # -- measure views ------------------------------------------------------

    def measure(self) -> Measure:
        return Measure(self.nodes, self._weights)


class MarchenkoPastur(SpectrumModel):
    """MP law with ratio delta, matching noise entries of variance 1/N.

    The density and the Stieltjes transform are closed form, S(z) = 2/(z +
    delta - 1 + r) with r's branch fixed so that S(z) ~ 1/z at infinity,
    which subtracts nothing on the support or off it.  S stays: near
    delta = 1 the 1/lambda pole below the support keeps F's series from
    rounding.  H and C' are the base class's, from S (H takes its limit from
    inside at the edge 0 when delta = 1).
    """

    kind = "marchenko_pastur"

    def __init__(self, delta: float):
        sq = np.sqrt(delta)
        super().__init__(delta, ((1.0 - sq) ** 2, (1.0 + sq) ** 2))

    def _density(self, lam):
        lo, hi = self.support
        arg = np.clip((hi - lam) * (lam - lo), 0.0, None)
        return np.sqrt(arg) / (2.0 * np.pi * self.delta * lam)

    def _stieltjes(self, z):
        z = np.asarray(z, dtype=complex)
        lo, hi = self.support
        with np.errstate(divide="ignore", invalid="ignore"):
            # the textbook (z + delta - 1 - r) / (2 delta z) times its conjugate,
            # as (z + delta - 1)^2 - r^2 = 4 delta z: the textbook form subtracts
            # two terms of size z (5.8e-10 relative lost at z = 1e7, delta = 1/2)
            s = 2.0 / (z + self.delta - 1.0 + np.sqrt(z - lo) * np.sqrt(z - hi))
        # 2/0 at delta = 1, where 0 is the edge: -inf, the limit from outside
        return np.where(np.isnan(s), -np.inf, s)


class ShiftedBeta(SpectrumModel):
    """Beta(a, b) density rescaled to the interval [lo, hi]."""

    kind = "shifted_beta"

    def __init__(self, a: float, b: float, lo: float, hi: float, delta: float):
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise SpectraError(f"Beta shapes must be finite and positive, got ({a}, {b})")
        self.a, self.b = float(a), float(b)
        try:
            self._norm = math.exp(math.lgamma(a) + math.lgamma(b)
                                  - math.lgamma(a + b)) * (hi - lo)
        except OverflowError:
            raise SpectraError(f"Beta shapes ({a}, {b}) too small: B(a, b) overflows") from None
        super().__init__(delta, (lo, hi))

    def _density(self, lam):
        lo, hi = self.support
        # 1 - t from hi - lam, which is exact next to hi, where 1 - t rounds
        t, u = (np.clip(x / (hi - lo), 0.0, 1.0) for x in (lam - lo, hi - lam))
        return t ** (self.a - 1.0) * u ** (self.b - 1.0) / self._norm

    def sample_eigenvalues(self, n: int, rng) -> np.ndarray:
        lo, hi = self.support
        return lo + (hi - lo) * rng.beta(self.a, self.b, size=n)


@dataclass(frozen=True)
class SpectralAtom:
    """Point mass shared by the induced measures at an outlier location.

    Every root of 1 = theta^2 C(lambda) off the support, above it or below
    it, is an outlier eigenvalue of Y Y^T (ShrinkageSet.find_spectral_atoms
    says why), and its nu1 and nu2 masses are the limiting squared overlaps
    of that eigenvector with u* and v*.
    """

    location: float          # root lambda* of 1 - theta^2 C(lambda) = 0
    nu1_mass: float
    nu2_mass: float
    nu3_mass_pos: float      # signed mass of nu3 at +sqrt(lambda*), negated at -sqrt


@dataclass(frozen=True)
class InducedMeasures:
    """The limiting signal-eigenspace measures nu1, nu2 (on lambda) and nu3 (on sigma)."""

    nu1: Measure
    nu2: Measure
    nu3: Measure
    atoms: tuple = ()


class ShrinkageSet:
    """Shrinkage functions and the Plemelj denominator at fixed SNR.

    phi1, phi2, phi3 are the densities of the induced measures relative to
    the noise spectrum.  All evaluators work on and off the support: off the
    support the density vanishes and pi * H equals the real Stieltjes
    transform, so the same two-square denominator expansion applies and
    equals (1 - theta^2 C(lambda))^2.
    """

    def __init__(self, spectrum: SpectrumModel, theta: float):
        if not 0.0 <= theta < np.inf:
            raise SpectraError(f"SNR must be finite and nonnegative, got {theta}")
        # reject before theta^2 overflows: the numerators' common
        # denominator grows like theta^4, which is no float past this
        theta_max = np.finfo(float).max ** 0.25
        if theta > theta_max:
            raise SpectraError(f"SNR {theta:g} too large: the shrinkage numerators "
                               f"grow like theta^4 and overflow past {theta_max:.3g}")
        self.spectrum = spectrum
        self.theta = float(theta)
        self.delta = spectrum.delta
        h0 = spectrum.hilbert(0.0)
        self._phi2_zero_denom = 1.0 - theta ** 2 * (1.0 - self.delta) * np.pi * h0
        # The zero-argument Hilbert transform appearing in the lambda = 0
        # branch carries no subscript in the source definitions; it is
        # interpreted as the Hilbert transform of the noise spectrum itself.
        logger.info("phi2(0) uses H_mu(0) = %.6g (interpreted as the noise-spectrum "
                    "Hilbert transform)", h0)
        # read by the induced measures and by every DenoiserSet's means
        self.node_numerators = self.numerators(spectrum.nodes)
        if not all(np.all(np.isfinite(v)) for v in self.node_numerators):
            raise SpectraError(f"SNR {theta:g} too large: the shrinkage numerators "
                               "overflow at the quadrature nodes")

    # -- raw pieces ---------------------------------------------------------

    def numerators(self, lam):
        """(n1, n2, n3, den) with phi_i = n_i / den, from the spectrum's
        density and Hilbert transform at lam, on the nodes and at
        eigenvalues alike.

        Working with numerators keeps the optimal matrix denoisers finite at
        the outlier locations, where den vanishes but the denoisers
        themselves have removable singularities.  Near the largest SNRs they
        overflow to inf without a warning; the callers reject what is not
        finite.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam < 0):
            raise SpectraError("shrinkage functions are defined on the nonnegative axis")
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = self.spectrum.density(lam)
        infinite = ~np.isfinite(mu)
        if np.any(infinite):
            raise SpectraError(f"shrinkage functions undefined at lambda = {lam[infinite][0]}, "
                               "where the density is infinite")
        h = self.spectrum.hilbert(lam)
        th2 = self.theta ** 2
        d = self.delta
        zero = lam == 0.0
        with np.errstate(over="ignore"):
            den = (1.0 - th2 * ((1.0 - d) * np.pi * h
                                - d * np.pi ** 2 * lam * (mu ** 2 - h ** 2))) ** 2 \
                + (np.pi * th2 * mu * (1.0 - d + 2.0 * d * np.pi * lam * h)) ** 2
            n1 = 1.0 + d * th2 * np.pi ** 2 * lam * (h ** 2 + mu ** 2)
            n3 = np.where(zero, 0.0, self.theta * (1.0 - d + 2.0 * d * np.pi * lam * h))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            n2 = d * n1 + self.theta * (1.0 - d) / lam * n3
        # lambda = 0 branch: phi2(0) = delta / (1 - theta^2 (1-delta) pi H(0))
        n2 = np.where(zero, d * self._phi2_zero_denom, n2)
        return n1, n2, n3, den

    def phi2_zero(self) -> float:
        return self.delta / self._phi2_zero_denom

    # -- atoms and induced measures ------------------------------------------

    def find_spectral_atoms(self) -> list[SpectralAtom]:
        """Roots of 1 - theta^2 C(lambda) = 0 off the support, with masses.

        Each side of the support holds at most one root, so one bracket per
        edge is bisected when g = 1 - theta^2 C differs in sign bit at its
        ends.  Above the upper edge S and lambda S are positive and
        decreasing, so C = delta (lambda S) S + (1 - delta) S decreases.
        Below the lower edge, for 0 < lambda < lo, T = -S = int dmu(t) /
        (t - lambda) > 0 and h = lambda T both increase strictly (T' > 0,
        h' = T + lambda T' > 0, h(0+) = 0), and C = T (delta h - (1 - delta)):
        C increases strictly wherever it is positive and is <= 0 elsewhere.
        So g has at most one zero there, with g > 0 to its left and g < 0
        to its right.  Both arguments need only a nonnegative measure on the
        half-line, as the series' is wherever F's interpolant is nonnegative
        (exactly so for a polynomial F).  The roots become point masses
        through C', the complex step of C; the upper atom comes first.

        Every root is an outlier, on either side of the support (the master
        equation of Benaych-Georges & Nadakuditi, J. Multivariate Anal. 111,
        2012).  Take lambda > 0 that is not an eigenvalue of W W^T.  Then
        lambda is an eigenvalue of Y Y^T exactly when the equation's 2 x 2
        determinant of resolvent quadratic forms in u* and v* vanishes.  At
        any lambda a positive distance from both the support and 0, those
        forms tend to
        S(lambda), delta S(lambda) + (1 - delta) / lambda and 0, so the limit
        equation is 1 = theta^2 C(lambda) on (0, lo) just as on (hi, inf),
        and the masses follow from C' by the same residue step.
        Rotationally invariant noise puts every eigenvalue of W W^T in
        [lo, hi] by construction, and Marchenko-Pastur has no root below its
        support (C <= 0 there).  On Beta(3/2, 3/2) noise on [1, 3] with
        delta = 1/2 and theta = 2 the smallest eigenvalue of Y Y^T sits at
        the lower root 0.9433, with overlaps matching its nu1 and nu2 masses
        (tests/test_spectra.py pins this on 20 simulated instances).
        """
        # theta^2 is also 0 below 1.5e-162: there 1 - theta^2 C is 1, and 0 inf
        # = nan at an infinite-density edge, whose root would round to it
        if self.theta ** 2 == 0:
            return []
        spec, th = self.spectrum, self.theta
        g = lambda lam: 1.0 - th ** 2 * np.real(spec.c_transform(lam))
        lo, hi = spec.support
        eps_lo = 1e-9 * max(1.0, lo)
        # the upper bracket starts at the edge, where C is maximal (+inf
        # where the density is infinite), so a root exists exactly above
        # detection_threshold
        brackets = [(hi, hi + ROOT_MARGIN_FACTOR * (1.0 + th ** 2))]
        if lo - eps_lo > eps_lo:
            brackets.append((eps_lo, lo - eps_lo))
        atoms = []
        for a, b in brackets:
            if np.signbit(g(a)) != np.signbit(g(b)):
                root = _bisect(g, a, b)
                # a root that rounds to the edge is no outlier: at a
                # square-root edge C' is infinite there and the masses vanish
                if root != hi:
                    atoms.append(self._atom_at(root))
        return atoms

    def _atom_at(self, lam_star):
        spec, th, d = self.spectrum, self.theta, self.delta
        cprime = spec.c_derivative(lam_star)
        s = float(np.real(spec.stieltjes(lam_star)))
        denom = -th ** 2 * cprime
        nu1_mass = s / denom
        nu2_mass = (d * s + (1.0 - d) / lam_star) / denom
        if nu1_mass < 0 or nu2_mass < 0:
            raise SpectraError(
                f"negative point mass at root {lam_star:.6g} "
                f"(nu1 {nu1_mass:.3g}, nu2 {nu2_mass:.3g}, C' {cprime:.3g})")
        sigma_star = np.sqrt(lam_star)
        nu3_pos = -np.sqrt(d) / (1.0 + d) / (2.0 * th ** 3 * sigma_star * cprime)
        return SpectralAtom(lam_star, nu1_mass, nu2_mass, nu3_pos)

    def build_induced_measures(self) -> InducedMeasures:
        """Assemble nu1, nu2 (lambda axis) and nu3 (signed, sigma axis)."""
        spec, d = self.spectrum, self.delta
        lam = spec.nodes
        base = spec.measure().weights
        n1, n2, n3, den = self.node_numerators
        phi1, phi2, phi3 = n1 / den, n2 / den, n3 / den
        atoms = self.find_spectral_atoms()

        nu1_atoms = tuple((a.location, a.nu1_mass) for a in atoms)
        nu2_atoms = tuple((a.location, a.nu2_mass) for a in atoms)
        if d < 1.0:    # the null space of Y^T Y
            nu2_atoms = nu2_atoms + ((0.0, (1.0 - d) / self._phi2_zero_denom),)

        # nu3 lives on the sigma axis: density (sqrt(d)/(1+d)) sign(s) mu(s^2) phi3(s^2)
        sigma = np.sqrt(lam)
        w3 = (np.sqrt(d) / (1.0 + d)) * base * phi3 / (2.0 * sigma)
        nu3_nodes = np.concatenate((-sigma[::-1], sigma))
        nu3_weights = np.concatenate((-w3[::-1], w3))
        nu3_atoms = []
        for a in atoms:
            s_star = np.sqrt(a.location)
            nu3_atoms += [(s_star, a.nu3_mass_pos), (-s_star, -a.nu3_mass_pos)]

        return InducedMeasures(
            nu1=Measure(lam, base * phi1, nu1_atoms),
            nu2=Measure(lam, base * phi2, nu2_atoms),
            nu3=Measure(nu3_nodes, nu3_weights, tuple(nu3_atoms)),
            atoms=tuple(atoms),
        )


def detection_threshold(spectrum: SpectrumModel) -> float:
    """Smallest SNR at which an outlier root exists above the support edge.

    The root equation 1 = theta^2 C(lambda) has a solution above the edge iff
    theta^2 sup C > 1; C is maximal at the edge, so the threshold is
    1 / sqrt(C(lambda_max)).  C is evaluated at the edge itself: a step
    eps above it would cost about sqrt(eps) at a square-root edge.  Where the
    density is infinite at the edge, C is +inf there and the threshold is 0:
    an outlier exists at every theta > 0.
    """
    edge = np.real(spectrum.c_transform(spectrum.support[1]))
    if edge <= 0:
        return np.inf
    return float(1.0 / np.sqrt(edge))
