"""Config parsing, experiment orchestration, CSV emission, and the CLI."""

import csv
import json

import numpy as np
import pytest

from rectoamp import harness
from rectoamp.cli import main as cli_main
from rectoamp.harness import (ConfigError, ExperimentConfig, HarnessError,
                              emit_csv, parse_config, run_experiment,
                              write_report)
from rectoamp.model import ModelError

SMALL = """
spectrum = mp
noise = gaussian
theta = 2.0
M = 200
N = 400
w0_u = 0.04
w0_v = 0.04
iters = 3
seeds = 3
methods = oamp,amp,pca
workers = 1
"""


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config(SMALL)
        assert cfg.M == 200 and cfg.N == 400
        assert cfg.delta == 0.5
        assert cfg.seeds == (0, 1, 2)
        assert cfg.methods == ("oamp", "amp", "pca")

    def test_seed_list(self):
        cfg = parse_config(SMALL.replace("seeds = 3", "seeds = 5, 9, 13"))
        assert cfg.seeds == (5, 9, 13)

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\ntheta = 1.5  # trailing\n")
        assert cfg.theta == 1.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("bogus = 1\n")

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            parse_config("M = 400\nN = 200\n")

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown methods"):
            parse_config("methods = oamp,ridge\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_overrides(self):
        cfg = parse_config(SMALL, {"seeds": "2", "methods": "pca"})
        assert cfg.seeds == (0, 1)
        assert cfg.methods == ("pca",)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(parse_config(SMALL))


class TestRunExperiment:
    def test_row_cardinality(self, small_report):
        # oamp and amp contribute iters rows each, pca one row
        assert len(small_report.rows) == 3 + 3 + 1
        assert small_report.n_seeds == 3

    def test_se_only(self):
        cfg = parse_config(SMALL, {"methods": "se-only"})
        report = run_experiment(cfg)
        assert report.rows == []
        assert len(report.predictions["oamp"][0]) == cfg.iters

    def test_aggregation_independent_recompute(self, small_report):
        cfg = parse_config(SMALL)
        _, schedules = harness.se_predictions(cfg)
        per_seed = {s: harness.run_single_seed(cfg, s, schedules)
                    for s in cfg.seeds}
        oamp_rows = [r for r in small_report.rows if r["method"] == "oamp"]
        for t, row in enumerate(oamp_rows):
            vals = [per_seed[s]["oamp"][0][t] for s in cfg.seeds]
            assert row["mean_cos2_u"] == pytest.approx(np.mean(vals), abs=1e-12)
            assert row["se_cos2_u"] == pytest.approx(
                np.std(vals, ddof=1) / np.sqrt(3), abs=1e-12)

    def test_parallel_matches_serial(self, small_report):
        cfg = parse_config(SMALL, {"workers": "3"})
        report = run_experiment(cfg)
        assert report.rows == small_report.rows

    def test_failure_threshold(self, monkeypatch):
        cfg = parse_config(SMALL)
        real = harness.run_single_seed

        def flaky(cfg, seed, schedules):
            if seed != 0:
                raise ModelError("synthetic failure")
            return real(cfg, seed, schedules)

        monkeypatch.setattr(harness, "run_single_seed", flaky)
        with pytest.raises(HarnessError, match="seeds failed"):
            run_experiment(cfg)

    def test_single_failure_tolerated(self, monkeypatch):
        cfg = parse_config(SMALL, {"seeds": "0,1,2,3,4"})
        real = harness.run_single_seed

        def flaky(cfg, seed, schedules):
            if seed == 4:
                raise ModelError("synthetic failure")
            return real(cfg, seed, schedules)

        monkeypatch.setattr(harness, "run_single_seed", flaky)
        report = run_experiment(cfg)
        assert report.failures == {4: "synthetic failure"}
        assert report.n_seeds == 4

    def test_programming_error_propagates(self, monkeypatch):
        # only domain errors count as seed failures
        cfg = parse_config(SMALL)

        def broken(cfg, seed, schedules):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(harness, "run_single_seed", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(cfg)


class TestEmission:
    def test_csv_round_trip(self, small_report, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(small_report.rows)
        for got, want in zip(rows, small_report.rows):
            assert float(got["mean_cos2_u"]) == want["mean_cos2_u"]
            assert got["method"] == want["method"]

    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), p1)
        emit_csv(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_when_empty(self, tmp_path):
        cfg = parse_config(SMALL, {"methods": "se-only"})
        path = tmp_path / "empty.csv"
        emit_csv(run_experiment(cfg), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("method,t,")

    def test_metadata_json(self, small_report, tmp_path):
        csv_path, meta_path = write_report(small_report, str(tmp_path / "r"))
        meta = json.loads(open(meta_path).read())
        assert "timestamp" in meta
        assert meta["n_seeds_used"] == 3

    def test_bad_path(self, small_report):
        with pytest.raises(HarnessError, match="cannot write"):
            emit_csv(small_report, "/nonexistent-dir/x.csv")


class TestCli:
    def test_no_args_usage(self, capsys):
        assert cli_main([]) == 2

    def test_missing_config(self, capsys):
        assert cli_main(["run", "/no/such/file.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("M = 400\nN = 200\n")
        assert cli_main(["run", str(p)]) == 2

    def test_fixed_point_output(self, capsys):
        assert cli_main(["fixed-point", "--theta", "2", "--delta", "0.5",
                         "--w0", "0.04"]) == 0
        out = capsys.readouterr().out
        vals = dict(line.split("=") for line in out.strip().splitlines())
        assert float(vals["w1"]) == pytest.approx(0.8816906605, abs=1e-8)

    def test_se_output(self, capsys):
        assert cli_main(["se", "--theta", "2", "--delta", "0.5",
                         "--w0", "0.04", "--iters", "3"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines()
                    if l and not l.startswith(("#", "t "))]) == 3

    def test_spectra_check_passes(self, capsys):
        assert cli_main(["spectra-check", "--theta", "2"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL.replace("seeds = 3", "seeds = 2"))
        out = tmp_path / "res" / "run"
        assert cli_main(["run", str(cfg), "--out", str(out),
                         "--methods", "pca"]) == 0
        assert (tmp_path / "res" / "run.csv").exists()
        assert (tmp_path / "res" / "run.meta.json").exists()
