"""The general two-channel state evolution, the oracle of the paper's
collapse claim: driven by the optimal denoisers along a schedule of
``optimal_se_run``, it must reproduce that schedule's strengths.  The
scalar denoisers enter it through the alignment and residual variance of
their outputs (``dmmse_stats``), which only this oracle reads; a schedule
itself needs only the output SNR rho (``scalar_channel.output_snr``)."""

from rectoamp.scalar_channel import MMSE_FLOOR, ScalarChannel, output_snr
from rectoamp.spectra import InducedMeasures, Measure, SpectrumModel
from rectoamp.state_evolution import StateEvolutionError


def dmmse_stats(channel: ScalarChannel, w: float):
    """(alpha, sigma2, rho): alignment, residual variance and output SNR of
    the divergence-free denoiser of ``channel`` at strength w.

    Closed forms in the posterior mmse m, floored once at MMSE_FLOOR (which
    leaves ``output_snr``'s own floor a no-op): alpha = (1 - w - m) /
    (1 - w - w m), rho = 1/m - 1/(1 - w), and sigma2 = alpha^2 / rho, for
    any prior.
    """
    m = max(channel.mmse(w), MMSE_FLOOR)
    rho = output_snr(w, m)
    alpha = (1.0 - w - m) / (1.0 - w - w * m)
    return alpha, alpha ** 2 / rho, rho


def measure_tilde(spectrum: SpectrumModel) -> Measure:
    """delta * mu + (1 - delta) * atom at 0 (law of the co-Gram matrix)."""
    atoms = ((0.0, 1.0 - spectrum.delta),) if spectrum.delta < 1.0 else ()
    mu = spectrum.measure()
    return Measure(mu.nodes, spectrum.delta * mu.weights, atoms)


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
    mu_t = measure_tilde(spectrum)

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
