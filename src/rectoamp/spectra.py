"""Analytic spectral engine for the noise spectrum and its derived objects.

Everything downstream (matrix denoisers, state evolution) is built from a
handful of deterministic transforms of the limiting spectral measure of the
noise Gram matrix: its Stieltjes and Hilbert transforms, the rectangular
C-transform, three shrinkage functions, and the induced signal-eigenspace
measures (densities plus point masses at outlier locations).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_QUAD_NODES = 2000
# SpectrumModel.hilbert evaluates this many points at a time, so its
# (rows x nodes) temporaries stay near 2 MB however many points it is given
_HILBERT_BLOCK_ROWS = 128
# Each side of the support holds at most one outlier root, so each is
# bisected in one bracket: [eps, lo - eps] below the lower edge and
# [hi, hi + ROOT_MARGIN_FACTOR (1 + theta^2)] above the upper one
# (ShrinkageSet.find_spectral_atoms says why).
ROOT_MARGIN_FACTOR = 10.0
# No search reads this any more: the benchmark's spectra.scan_mb metric
# (perfbench/pipeline.py) still sizes the former lower-edge sign scan from
# it, so it goes when that metric does.
ROOT_SCAN_POINTS = 10_000


class SpectraError(Exception):
    pass


def _bisect(g, a: float, b: float) -> float:
    """Root of g in [a, b], where g(a) and g(b) differ in sign bit: halve
    the bracket until its midpoint rounds to an endpoint."""
    neg_a = np.signbit(g(a))
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        if np.signbit(g(mid)) == neg_a:
            a = mid
        else:
            b = mid


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


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the three-term recurrence, entrywise.

    The recurrence P_j = a_j x P_{j-1} - b_j P_{j-2} runs in place, with
    a_j = (2j - 1)/j and b_j = (j - 1)/j precomputed.
    """
    j = np.arange(2, n + 1)
    a, b = ((2 * j - 1) / j).tolist(), ((j - 1) / j).tolist()
    mul, sub = np.multiply, np.subtract     # positional out: less call overhead
    p_prev, p, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for aj, bj in zip(a, b):
        mul(x, p, nxt)
        mul(nxt, aj, nxt)
        mul(p_prev, bj, p_prev)
        sub(nxt, p_prev, nxt)
        p_prev, p, nxt = p, nxt, p_prev
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=4)
def _reference_rule(n: int):
    """n-point Gauss-Legendre rule on [-1, 1], nodes ascending, as read-only
    arrays computed once per n and process.

    Newton's method on the three-term recurrence from Tricomi's initial
    guesses (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013), vectorized
    over the positive nodes; the negative ones are their mirror images, so
    the rule is exactly symmetric, and odd n adds the node 0.  A node leaves
    the iteration once its next correction, about |x| / (1 - x^2) dx^2 by
    P_n'' / P_n' = 2x / (1 - x^2) at a root, is below eps / 4 (at n = 2000
    all but the two outermost nodes after one step); the weights then take
    one more recurrence pass at the converged nodes.
    """
    k = np.arange(1, n // 2 + 1)
    t = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n ** 4)) * np.cos(t)
    active = np.arange(x.size)
    for _ in range(10):
        xa = x[active]
        p, dp = _legendre(n, xa)
        dx = p / dp
        xa -= dx
        x[active] = xa
        active = active[np.abs(xa) / ((1.0 - xa) * (1.0 + xa)) * dx ** 2
                        >= 0.25 * np.finfo(float).eps]
        if active.size == 0:
            break
    else:
        raise SpectraError(f"Gauss-Legendre Newton iteration did not converge (n = {n})")
    x = np.concatenate((np.zeros(n % 2), x[::-1]))      # 0 <= x, ascending
    w = 2.0 / ((1.0 - x) * (1.0 + x) * _legendre(n, x)[1] ** 2)
    x = np.concatenate((-x[n % 2:][::-1], x))
    w = np.concatenate((w[n % 2:][::-1], w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(lo: float, hi: float, n: int):
    """n-point Gauss-Legendre rule on [lo, hi], nodes ascending, in fresh
    arrays: the cached reference rule shifted and scaled."""
    x, w = _reference_rule(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


class SpectrumModel:
    """Limiting spectral law of the noise Gram matrix, with aspect ratio.

    The measure must be a probability measure with a Hölder-continuous
    density on a compact subset of the positive half-line.  Subclasses
    define ``_density(lam)`` on the support from their own attributes, so
    spectra pickle.
    """

    def __init__(self, delta: float, support):
        if not 0.0 < delta <= 1.0:
            raise SpectraError(f"aspect ratio must be in (0, 1], got {delta}")
        lo, hi = float(support[0]), float(support[1])
        if not 0.0 <= lo < hi < np.inf:
            raise SpectraError(f"invalid support [{lo}, {hi}]")
        self.delta = float(delta)
        self.support = (lo, hi)
        self.nodes, self.quad_weights = _gauss_legendre(lo, hi, DEFAULT_QUAD_NODES)
        with np.errstate(all="ignore"):     # nan on a degenerate support
            self._density_at_nodes = np.asarray(self._density(self.nodes), dtype=float)
        mass = float(np.dot(self.quad_weights, self._density_at_nodes))
        # tolerance accommodates square-root edge behavior (e.g. MP at
        # delta = 1); weights are then renormalized so <1> = 1 exactly
        if not abs(mass - 1.0) <= 5e-3:
            raise SpectraError(f"density on the support [{lo}, {hi}] does not integrate "
                               f"to 1 (got {mass:.8f})")
        self.quad_weights = self.quad_weights / mass
        # read by every ShrinkageSet's node numerators, whatever its SNR
        self._hilbert_at_nodes = self.hilbert(self.nodes)
        with np.errstate(over="ignore"):    # the shrinkage numerators square both
            squares = np.square([self._density_at_nodes, self._hilbert_at_nodes])
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
        return self._stieltjes(z)

    def _on_support_real(self, z):
        z = np.asarray(z)
        lo, hi = self.support
        real = np.isreal(z)
        x = np.real(z)
        return real & (x > lo) & (x < hi)

    def _stieltjes(self, z):
        z = np.asarray(z, dtype=complex)
        vals = np.sum(
            self.quad_weights * self._density_at_nodes
            / (z[..., None] - self.nodes), axis=-1)
        if vals.ndim == 0:
            vals = complex(vals)
            return vals.real if np.isreal(z) else vals
        return vals

    def _stieltjes_derivative(self, lam: float) -> float:
        """S'(lambda) = -int (lambda - t)^-2 dmu(t), real lambda off the support."""
        return -float(np.sum(self.quad_weights * self._density_at_nodes
                             / (lam - self.nodes) ** 2))

    def hilbert(self, x):
        """(1/pi) P.V. int mu(lam) / (x - lam) dlam, defined on all of R.

        Inside the support the principal value is computed by subtracting the
        density value at x, which leaves a bounded integrand for a
        Hölder-continuous density; the log term is the exact PV integral of
        the subtracted constant.  Outside the support this reduces to the
        plain quadrature, i.e. S(x) / pi.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = self.support
        mux = np.atleast_1d(self.density(x))
        out = np.empty_like(x)
        buf = np.empty((min(x.size, _HILBERT_BLOCK_ROWS), self.nodes.size))
        for start in range(0, x.size, _HILBERT_BLOCK_ROWS):
            rows = slice(start, start + _HILBERT_BLOCK_ROWS)
            xb = x[rows]
            integrand = np.subtract(self._density_at_nodes, mux[rows, None],
                                    out=buf[:xb.size])
            # where x is a quadrature node (every ShrinkageSet's node
            # numerators, computed once in SpectrumModel.__init__) that node's
            # term is 0/0 and is set to 0, which drops w_i (-mu'(x_i)) / pi
            # from the sum; so is every term at an x where the density is
            # infinite.  A quotient that overflows (a very narrow support)
            # has no such meaning, and fails the spectrum
            try:
                with np.errstate(divide="ignore", invalid="ignore", over="raise"):
                    integrand /= xb[:, None] - self.nodes
            except FloatingPointError:
                raise SpectraError(f"the Hilbert transform on the support "
                                   f"[{lo}, {hi}] overflows") from None
            integrand[~np.isfinite(integrand)] = 0.0
            # einsum reduces each row alike whatever the block's row count,
            # where a gemv's per-row bits depend on it
            out[rows] = np.einsum("ij,j->i", integrand, self.quad_weights)
        inside = (x > lo) & (x < hi)
        out[inside] += mux[inside] * np.log((x[inside] - lo) / (hi - x[inside]))
        out /= np.pi
        return float(out[0]) if scalar else out

    def c_transform(self, z):
        """Rectangular composite transform z*S(z)*(delta*S(z) + (1-delta)/z)."""
        z = np.asarray(z)
        if np.any(z == 0):
            raise SpectraError("c_transform undefined at z = 0")
        s = self.stieltjes(z)
        return z * s * (self.delta * s + (1.0 - self.delta) / z)

    def c_derivative(self, lam: float) -> float:
        """dC/dlambda on the real axis off the support:
        C' = delta S^2 + (2 delta lambda S + 1 - delta) S'."""
        s = float(np.real(self.stieltjes(lam)))   # rejects lam on the support
        d = self.delta
        return d * s ** 2 + (2.0 * d * lam * s + 1.0 - d) * self._stieltjes_derivative(lam)

    # -- measure views ------------------------------------------------------

    def measure(self) -> Measure:
        return Measure(self.nodes, self.quad_weights * self._density_at_nodes)


class MarchenkoPastur(SpectrumModel):
    """MP law with ratio delta, matching noise entries of variance 1/N.

    Stieltjes transform and density are closed form; the branch of the square
    root is fixed so that S(z) ~ 1/z at infinity.
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
            r = np.sqrt(z - lo) * np.sqrt(z - hi)
            s = (z + self.delta - 1.0 - r) / (2.0 * self.delta * z)
        if self.delta < 1.0:
            # removable 0/0 at the origin: S(0) = -E[1/lambda] = -1/(1-delta)
            s = np.where(z == 0, -1.0 / (1.0 - self.delta), s)
        if s.ndim == 0:
            s = complex(s)
            return s.real if np.isreal(z) else s
        return s

    def _stieltjes_derivative(self, lam):
        # S' = (1 - r') / (2 delta lambda) - S / lambda with r^2 = (z - lo)(z - hi)
        lo, hi = self.support
        r = np.sqrt(complex(lam - lo)) * np.sqrt(complex(lam - hi))
        dr = (2.0 * lam - lo - hi) / (2.0 * r)
        s = self._stieltjes(lam)
        return float(np.real((1.0 - dr) / (2.0 * self.delta * lam) - s / lam))

    def hilbert(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi) & (x > 0)
        out = np.empty_like(x)
        out[inside] = (x[inside] + self.delta - 1.0) / (2 * np.pi * self.delta * x[inside])
        if self.delta == 1.0:
            out[x == 0] = 1.0 / (2.0 * np.pi)  # interior limit at the edge
        outside = ~inside & ~((x == 0) & (self.delta == 1.0))
        if np.any(outside):
            out[outside] = np.real(self._stieltjes(x[outside].astype(complex))) / np.pi
        return float(out[0]) if scalar else out


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
        t = np.clip((lam - lo) / (hi - lo), 0.0, 1.0)
        return t ** (self.a - 1.0) * (1.0 - t) ** (self.b - 1.0) / self._norm

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
        self.node_numerators = self._numerators(
            spectrum.nodes, spectrum._density_at_nodes, spectrum._hilbert_at_nodes)
        if not all(np.all(np.isfinite(v)) for v in self.node_numerators):
            raise SpectraError(f"SNR {theta:g} too large: the shrinkage numerators "
                               "overflow at the quadrature nodes")

    # -- raw pieces ---------------------------------------------------------

    def numerators(self, lam):
        """(n1, n2, n3, den) with phi_i = n_i / den.

        Working with numerators keeps the optimal matrix denoisers finite at
        the outlier locations, where den vanishes but the denoisers
        themselves have removable singularities.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam < 0):
            raise SpectraError("shrinkage functions are defined on the nonnegative axis")
        return self._numerators(lam, self.spectrum.density(lam), self.spectrum.hilbert(lam))

    def _numerators(self, lam, mu, h):
        """numerators(lam) from the density mu and Hilbert transform h at lam.

        Near the largest SNRs they overflow to inf without a warning; the
        callers reject what is not finite.
        """
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
        to its right.  Both arguments need only a nonnegative measure on
        the half-line, so they hold for the quadrature measure as well.  The roots become
        point masses through the derivative of the C-transform; the upper
        atom comes first.

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
        if self.theta == 0:
            return []
        spec, th = self.spectrum, self.theta
        g = lambda lam: 1.0 - th ** 2 * np.real(spec.c_transform(lam))
        lo, hi = spec.support
        eps_lo = 1e-9 * max(1.0, lo)
        # the upper bracket starts at the edge, where C is finite and
        # maximal, so a root exists exactly above detection_threshold
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
        base = spec.quad_weights * spec._density_at_nodes
        n1, n2, n3, den = self.node_numerators
        phi1, phi2, phi3 = n1 / den, n2 / den, n3 / den
        atoms = self.find_spectral_atoms()

        nu1_atoms = tuple((a.location, a.nu1_mass) for a in atoms)
        nu2_atoms = tuple((a.location, a.nu2_mass) for a in atoms)
        if d < 1.0:    # the null space of Y^T Y
            nu2_atoms = nu2_atoms + ((0.0, (1.0 - d) / self._phi2_zero_denom),)

        # enforce the exact sum rules nu1(R) = nu2(R) = 1 on the quadrature
        # weights of the continuous parts; for spectra without closed-form
        # transforms the grid Hilbert transform leaves a mass defect of up
        # to about 1e-4, and where phi1 peaks at an edge (theta at the
        # lower-edge threshold) the quadrature rule itself leaves about as
        # much (ROADMAP direction 1)
        w1 = base * phi1
        w2 = base * phi2
        target1 = 1.0 - sum(m for _, m in nu1_atoms)
        target2 = 1.0 - sum(m for _, m in nu2_atoms)
        if w1.sum() > 0 and target1 > 0:
            w1 *= target1 / w1.sum()
        if w2.sum() > 0 and target2 > 0:
            w2 *= target2 / w2.sum()

        # nu3 lives on the sigma axis: density (sqrt(d)/(1+d)) sign(s) mu(s^2) phi3(s^2)
        sigma = np.sqrt(lam)
        w3 = (np.sqrt(d) / (1.0 + d)) * spec._density_at_nodes * phi3 \
            * spec.quad_weights / (2.0 * sigma)
        nu3_nodes = np.concatenate((-sigma[::-1], sigma))
        nu3_weights = np.concatenate((-w3[::-1], w3))
        nu3_atoms = []
        for a in atoms:
            s_star = np.sqrt(a.location)
            nu3_atoms += [(s_star, a.nu3_mass_pos), (-s_star, -a.nu3_mass_pos)]

        return InducedMeasures(
            nu1=Measure(lam, w1, nu1_atoms),
            nu2=Measure(lam, w2, nu2_atoms),
            nu3=Measure(nu3_nodes, nu3_weights, tuple(nu3_atoms)),
            atoms=tuple(atoms),
        )


def detection_threshold(spectrum: SpectrumModel) -> float:
    """Smallest SNR at which an outlier root exists above the support edge.

    The root equation 1 = theta^2 C(lambda) has a solution above the edge iff
    theta^2 sup C > 1; C is maximal at the edge, so the threshold is
    1 / sqrt(C(lambda_max)).  C is evaluated at the edge itself: a step
    eps above it would cost about sqrt(eps) at a square-root edge.
    """
    edge = np.real(spectrum.c_transform(spectrum.support[1]))
    if edge <= 0:
        return np.inf
    return float(1.0 / np.sqrt(edge))
