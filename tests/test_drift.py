"""Drift gate: the pinned outputs of ``drift_references.py`` do not move.

Every cell of each case's output is compared with its reference in
``tests/data/``, at the tolerances that script states.  A change that
moves numbers on purpose regenerates the references with that script.
"""

import pytest

import drift_references
from drift_references import CASES, drifts, reference_path, render


@pytest.mark.parametrize("case", CASES)
def test_output_matches_reference(case):
    reference = reference_path(case).read_text()
    moved = {column: drift for column, (drift, ok)
             in drifts(case, reference, render(case)).items() if not ok}
    assert moved == {}


def test_naming_a_case_rewrites_only_its_reference(tmp_path, monkeypatch, capsys):
    for case in CASES:
        (tmp_path / reference_path(case).name).write_text(f"stale {case}\n")
    monkeypatch.setattr(drift_references, "DATA", tmp_path)
    assert drift_references.main(["spectra_check_mp"]) == 0
    for case in CASES:
        text = reference_path(case).read_text()
        if case == "spectra_check_mp":
            assert text == render(case)
        else:
            assert text == f"stale {case}\n"
    assert drift_references.main(["no_such_case"]) == 2
    assert "unknown case no_such_case" in capsys.readouterr().err
