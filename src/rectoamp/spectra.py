"""Analytic spectral engine for the noise spectrum and its derived objects.

Everything downstream (matrix denoisers, state evolution) is built from a
handful of deterministic transforms of the limiting spectral measure of the
noise Gram matrix: its Stieltjes and Hilbert transforms, the rectangular
C-transform, three shrinkage functions, and the induced signal-eigenspace
measures (densities plus point masses at outlier locations).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import beta as beta_fn

logger = logging.getLogger(__name__)

DEFAULT_QUAD_NODES = 2000
# Search window for outlier roots above the support edge, scanned on a
# 1e4-point grid before bisection.  C decays monotonically to 0 above the
# support, so roots cannot hide beyond an SNR-dependent bound.
ROOT_SCAN_POINTS = 10_000
ROOT_MARGIN_FACTOR = 10.0


class SpectraError(Exception):
    pass


class RootFindingError(SpectraError):
    """Root finder failed; carries the bracketing interval for diagnosis."""

    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


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

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights)) + sum(m for _, m in self.atoms)


def _gauss_legendre(lo: float, hi: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


class SpectrumModel:
    """Limiting spectral law of the noise Gram matrix, with aspect ratio.

    The measure must be a probability measure with a Hölder-continuous
    density on a compact subset of the positive half-line.  The companion
    law of the transposed Gram matrix is delta * mu + (1 - delta) * atom
    at zero and is exposed through :meth:`measure_tilde`.
    """

    kind = "generic"

    def __init__(self, delta: float, support, density):
        if not 0.0 < delta <= 1.0:
            raise SpectraError(f"aspect ratio must be in (0, 1], got {delta}")
        lo, hi = float(support[0]), float(support[1])
        if lo < 0 or hi <= lo:
            raise SpectraError(f"invalid support [{lo}, {hi}]")
        self.delta = float(delta)
        self.support = (lo, hi)
        self._density = density
        self.nodes, self.quad_weights = _gauss_legendre(lo, hi, DEFAULT_QUAD_NODES)
        self._density_at_nodes = np.asarray(density(self.nodes), dtype=float)
        mass = float(np.dot(self.quad_weights, self._density_at_nodes))
        # tolerance accommodates square-root edge behavior (e.g. MP at
        # delta = 1); weights are then renormalized so <1> = 1 exactly
        if abs(mass - 1.0) > 5e-3:
            raise SpectraError(f"density does not integrate to 1 (got {mass:.8f})")
        self.quad_weights = self.quad_weights / mass

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
        mux = self.density(x)
        mux = np.atleast_1d(mux)
        diff = x[:, None] - self.nodes
        # nodes never coincide with arbitrary x in exact arithmetic, but
        # guard the division anyway
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = (self._density_at_nodes - mux[:, None]) / diff
        integrand = np.where(np.isfinite(integrand), integrand, 0.0)
        out = integrand @ self.quad_weights
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

    def measure_tilde(self) -> Measure:
        """delta * mu + (1 - delta) * atom at 0 (law of the co-Gram matrix)."""
        atoms = ((0.0, 1.0 - self.delta),) if self.delta < 1.0 else ()
        return Measure(self.nodes, self.delta * self.quad_weights * self._density_at_nodes,
                       atoms)

    def sample_eigenvalues(self, n: int, rng) -> np.ndarray:
        """Draw n i.i.d. samples by inverting the quadrature CDF."""
        cdf = np.cumsum(self.quad_weights * self._density_at_nodes)
        cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
        grid = np.concatenate(([self.support[0]], self.nodes, [self.support[1]]))
        u = rng.uniform(size=n)
        return np.interp(u, cdf, grid)


class MarchenkoPastur(SpectrumModel):
    """MP law with ratio delta, matching noise entries of variance 1/N.

    Stieltjes transform and density are closed form; the branch of the square
    root is fixed so that S(z) ~ 1/z at infinity.
    """

    kind = "marchenko_pastur"

    def __init__(self, delta: float):
        sq = np.sqrt(delta)
        lo, hi = (1.0 - sq) ** 2, (1.0 + sq) ** 2

        def density(lam):
            lam = np.asarray(lam, dtype=float)
            arg = np.clip((hi - lam) * (lam - lo), 0.0, None)
            return np.sqrt(arg) / (2.0 * np.pi * delta * lam)

        super().__init__(delta, (lo, hi), density)

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
        if lo < 0:
            raise SpectraError("support must lie on the positive half-line")
        self.a, self.b = float(a), float(b)
        width = hi - lo
        norm = beta_fn(a, b) * width

        def density(lam):
            t = np.clip((np.asarray(lam, dtype=float) - lo) / width, 0.0, 1.0)
            return t ** (a - 1.0) * (1.0 - t) ** (b - 1.0) / norm

        super().__init__(delta, (lo, hi), density)

    def sample_eigenvalues(self, n: int, rng) -> np.ndarray:
        lo, hi = self.support
        return lo + (hi - lo) * rng.beta(self.a, self.b, size=n)


class Tabulated(SpectrumModel):
    """Density linearly interpolated between grid nodes, renormalized to mass 1."""

    kind = "tabulated"

    def __init__(self, grid, values, delta: float):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < 0):
            raise SpectraError("tabulated density must be nonnegative")
        mass = np.trapezoid(values, grid)
        values = values / mass

        def density(lam):
            return np.interp(np.asarray(lam, dtype=float), grid, values,
                             left=0.0, right=0.0)

        super().__init__(delta, (grid[0], grid[-1]), density)


@dataclass(frozen=True)
class SpectralAtom:
    """Point mass shared by the induced measures at an outlier location."""

    location: float          # root lambda* of 1 - theta^2 C(lambda) = 0
    nu1_mass: float
    nu2_mass: float
    nu3_mass_pos: float      # signed mass of nu3 at +sqrt(lambda*)
    verified: bool = True    # False for roots below the support edge

    @property
    def nu3_mass_neg(self) -> float:
        return -self.nu3_mass_pos


@dataclass(frozen=True)
class InducedMeasures:
    """The limiting signal-eigenspace measures nu1, nu2 (on lambda) and nu3 (on sigma)."""

    nu1: Measure
    nu2: Measure
    nu3: Measure
    nu2_zero_mass: float
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
        if theta < 0:
            raise SpectraError(f"SNR must be nonnegative, got {theta}")
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

    # -- raw pieces ---------------------------------------------------------

    def _mu_h(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.spectrum.density(lam), self.spectrum.hilbert(lam)

    def numerators(self, lam):
        """(n1, n2, n3, den) with phi_i = n_i / den.

        Working with numerators keeps the optimal matrix denoisers finite at
        the outlier locations, where den vanishes but the denoisers
        themselves have removable singularities.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam < 0):
            raise SpectraError("shrinkage functions are defined on the nonnegative axis")
        th2 = self.theta ** 2
        d = self.delta
        mu, h = self._mu_h(lam)
        mu, h = np.atleast_1d(mu), np.atleast_1d(h)
        den = (1.0 - th2 * ((1.0 - d) * np.pi * h
                            - d * np.pi ** 2 * lam * (mu ** 2 - h ** 2))) ** 2 \
            + (np.pi * th2 * mu * (1.0 - d + 2.0 * d * np.pi * lam * h)) ** 2
        n1 = 1.0 + d * th2 * np.pi ** 2 * lam * (h ** 2 + mu ** 2)
        n3 = self.theta * (1.0 - d + 2.0 * d * np.pi * lam * h)
        zero = lam == 0.0
        n3 = np.where(zero, 0.0, n3)
        with np.errstate(divide="ignore", invalid="ignore"):
            n2 = d * n1 + self.theta * (1.0 - d) / lam * n3
        # lambda = 0 branch: phi2(0) = delta / (1 - theta^2 (1-delta) pi H(0))
        n2 = np.where(zero, d * self._phi2_zero_denom, n2)
        return n1, n2, n3, den

    def plemelj_denominator(self, lam):
        """Two-square expansion of lim |1 - theta^2 C(lambda - i eps)|^2."""
        out = self.numerators(lam)[3]
        return float(out[0]) if np.asarray(lam).ndim == 0 else out

    def phi(self, lam):
        """(phi1, phi2, phi3) evaluated entrywise."""
        scalar = np.asarray(lam).ndim == 0
        n1, n2, n3, den = self.numerators(lam)
        phi1, phi2, phi3 = n1 / den, n2 / den, n3 / den
        if scalar:
            return float(phi1[0]), float(phi2[0]), float(phi3[0])
        return phi1, phi2, phi3

    def phi2_zero(self) -> float:
        return self.delta / self._phi2_zero_denom

    # -- atoms and induced measures ------------------------------------------

    def find_spectral_atoms(self) -> list[SpectralAtom]:
        """Roots of 1 - theta^2 C(lambda) = 0 off the support, with masses.

        Scans above the upper support edge (and below the lower edge when the
        support is bounded away from zero) for sign changes, bisects each
        bracket, and converts the roots into point masses through the
        derivative of the C-transform.
        """
        if self.theta == 0:
            return []
        spec, th = self.spectrum, self.theta
        lo, hi = spec.support
        search_margin = ROOT_MARGIN_FACTOR * (1.0 + th ** 2)
        atoms = []
        eps_lo, eps_hi = 1e-9 * max(1.0, lo), 1e-9 * max(1.0, hi)
        for a, b, verified in (
            (hi + eps_hi, hi + search_margin, True),
            (eps_lo if lo > 0 else None, lo - eps_lo if lo > 0 else None, False),
        ):
            if a is None or b <= a:
                continue
            atoms.extend(self._scan_bracketed(a, b, verified))
        return atoms

    def _scan_bracketed(self, a, b, verified):
        spec, th = self.spectrum, self.theta
        g = lambda lam: 1.0 - th ** 2 * np.real(spec.c_transform(lam))
        grid = np.linspace(a, b, ROOT_SCAN_POINTS)
        vals = 1.0 - th ** 2 * np.real(spec.c_transform(grid.astype(complex)))
        found = []
        sign_change = np.nonzero(np.diff(np.signbit(vals)))[0]
        for i in sign_change:
            try:
                root = brentq(g, grid[i], grid[i + 1], xtol=1e-12, rtol=1e-14)
            except ValueError as exc:
                raise RootFindingError(
                    f"bisection failed on [{grid[i]:.6g}, {grid[i + 1]:.6g}]: {exc}",
                    bracket=(grid[i], grid[i + 1])) from exc
            found.append(self._atom_at(root, verified))
        return found

    def _atom_at(self, lam_star, verified):
        spec, th, d = self.spectrum, self.theta, self.delta
        cprime = spec.c_derivative(lam_star)
        if not verified:
            warnings.warn(
                f"root {lam_star:.6g} below the spectrum support: unverified branch",
                RuntimeWarning, stacklevel=3)
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
        return SpectralAtom(lam_star, nu1_mass, nu2_mass, nu3_pos, verified)

    def build_induced_measures(self) -> InducedMeasures:
        """Assemble nu1, nu2 (lambda axis) and nu3 (signed, sigma axis)."""
        spec, d = self.spectrum, self.delta
        lam = spec.nodes
        base = spec.quad_weights * spec._density_at_nodes
        n1, n2, n3, den = self.numerators(lam)
        phi1, phi2, phi3 = n1 / den, n2 / den, n3 / den
        atoms = self.find_spectral_atoms()

        nu1_atoms = tuple((a.location, a.nu1_mass) for a in atoms)
        nu2_zero = 0.0
        nu2_atoms = tuple((a.location, a.nu2_mass) for a in atoms)
        if d < 1.0:
            nu2_zero = (1.0 - d) / self._phi2_zero_denom
            nu2_atoms = nu2_atoms + ((0.0, nu2_zero),)

        # enforce the exact sum rules nu1(R) = nu2(R) = 1 on the quadrature
        # weights of the continuous parts; for spectra without closed-form
        # transforms the grid Hilbert transform leaves an O(1e-4) mass defect
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
            nu3_atoms += [(s_star, a.nu3_mass_pos), (-s_star, a.nu3_mass_neg)]

        return InducedMeasures(
            nu1=Measure(lam, w1, nu1_atoms),
            nu2=Measure(lam, w2, nu2_atoms),
            nu3=Measure(nu3_nodes, nu3_weights, tuple(nu3_atoms)),
            nu2_zero_mass=nu2_zero,
            atoms=tuple(atoms),
        )


def detection_threshold(spectrum: SpectrumModel) -> float:
    """Smallest SNR at which an outlier root exists above the support edge.

    The root equation 1 = theta^2 C(lambda) has a solution above the edge iff
    theta^2 sup C > 1; C is maximal at the edge, so the threshold is
    1 / sqrt(C(lambda_max+)).
    """
    hi = spectrum.support[1]
    edge = np.real(spectrum.c_transform(hi + 1e-9 * max(1.0, hi)))
    if edge <= 0:
        return np.inf
    return float(1.0 / np.sqrt(edge))
