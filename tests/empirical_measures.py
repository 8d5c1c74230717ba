"""Signal-weighted empirical spectral measures of an instance, the oracles
of the induced-measure checks."""

from dataclasses import dataclass

import numpy as np

from rectoamp.model import ProblemInstance, SvdCache


@dataclass
class EmpiricalSignalMeasures:
    """Signal-weighted empirical spectral measures of the noise Gram matrix."""

    nu_M1: tuple          # (eigenvalues of YY^T, weights)
    nu_N2: tuple          # (eigenvalues of Y^T Y incl. 0, weights)
    nu_L3: tuple          # (eigenvalues of the dilation, signed weights)


def empirical_signal_measures(inst: ProblemInstance,
                              svd: SvdCache) -> EmpiricalSignalMeasures:
    """Signal-weighted empirical spectral measures from the cached SVD.

    The right factor is never formed: with v_i = Y^T u_i / sigma_i and
    sigma_i = sqrt(lambda_i), <v_i, v*> = (U^T (Y v*))_i / sigma_i, two
    matvecs instead of the N x M GEMM Y^T U.  So every eigenvalue must be
    positive, as on the Gram path of ``thin_svd``.
    The dilation's eigenpairs come for free: eigenvalues +-sigma_i with
    eigenvectors (u_i, +-v_i)/sqrt(2), plus N - M null vectors supported on
    the v side (these carry zero nu_L3 weight because their u part vanishes).
    """
    M, N, L = inst.M, inst.N, inst.M + inst.N
    lam = svd.eigenvalues
    sigma = np.sqrt(lam)
    ovl_u = svd.U.T @ inst.u_star                      # <u_i, u*>
    ovl_v = svd.U.T @ (inst.Y @ inst.v_star) / sigma   # <v_i, v*>

    nu_m1 = (lam, ovl_u ** 2 / M)

    null_mass = (inst.v_star @ inst.v_star - ovl_v @ ovl_v) / N
    nu_n2 = (np.concatenate((lam, [0.0])),
             np.concatenate((ovl_v ** 2 / N, [null_mass])))

    prod = ovl_u * ovl_v / (2.0 * L)
    nu_l3 = (np.concatenate((sigma, -sigma)), np.concatenate((prod, -prod)))
    return EmpiricalSignalMeasures(nu_m1, nu_n2, nu_l3)


def measure_moments(values, weights, orders=(0, 1, 2, 3)) -> np.ndarray:
    return np.array([np.dot(weights, np.asarray(values) ** k) for k in orders])
