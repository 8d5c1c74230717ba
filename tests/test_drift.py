"""Drift gate: the pinned outputs of ``drift_references.py`` do not move.

Every cell of each case's output is compared with its reference in
``tests/data/``, at the tolerances that script states.  A change that
moves numbers on purpose regenerates the references with that script.
"""

import pytest

from drift_references import CASES, drifts, reference_path, render


@pytest.mark.parametrize("case", CASES)
def test_output_matches_reference(case):
    reference = reference_path(case).read_text()
    moved = {column: drift for column, (drift, ok)
             in drifts(case, reference, render(case)).items() if not ok}
    assert moved == {}
