"""A spectrum given by a table, the tests' law with a piecewise density and
no closed form: its transforms come from the quadrature alone."""

import numpy as np

from rectoamp.spectra import SpectraError, SpectrumModel


class Tabulated(SpectrumModel):
    """Density linearly interpolated between grid nodes, renormalized to mass 1."""

    kind = "tabulated"

    def __init__(self, grid, values, delta: float):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < 0):
            raise SpectraError("tabulated density must be nonnegative")
        mass = np.trapezoid(values, grid)
        self._grid, self._values = grid, values / mass
        super().__init__(delta, (grid[0], grid[-1]))

    def _density(self, lam):
        return np.interp(lam, self._grid, self._values, left=0.0, right=0.0)
