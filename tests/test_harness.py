"""Config parsing, experiment orchestration, CSV emission, and the CLI."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import rectoamp
from rectoamp import cli, harness
from rectoamp.cli import main as cli_main
from rectoamp.harness import (ConfigError, ExperimentConfig, HarnessError,
                              build_spectrum, emit_csv, parse_config,
                              run_experiment, se_predictions, write_report)
from rectoamp.model import ModelError
from rectoamp.oamp import IterationTrace
from rectoamp.spectra import ShrinkageSet

SMALL = """
spectrum = mp
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

# rotationally invariant Beta noise: the pool ships a ShiftedBeta
SMALL_BETA = (SMALL.replace("spectrum = mp", "spectrum = beta")
              .replace("methods = oamp,amp,pca", "methods = oamp,pca"))


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


def test_import_leaves_process_pool_out():
    src = os.path.dirname(os.path.dirname(rectoamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, rectoamp.harness\n"
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestRunExperiment:
    def test_row_cardinality(self, small_report):
        # oamp and amp contribute iters rows each, pca one row
        assert len(small_report.rows) == 3 + 3 + 1
        assert small_report.metadata["n_seeds_used"] == 3

    def test_se_only(self):
        cfg = parse_config(SMALL, {"methods": "se-only"})
        report = run_experiment(cfg)
        assert report.rows == []
        assert len(report.metadata["schedules"]["oamp"]["w1"]) == cfg.iters

    def test_aggregation_independent_recompute(self, small_report):
        cfg = parse_config(SMALL)
        shrinkage = harness.ShrinkageSet(harness.build_spectrum(cfg), cfg.theta)
        predictions = harness.se_predictions(cfg, shrinkage)
        per_seed = {s: harness.run_single_seed(cfg, s, shrinkage, predictions)
                    for s in cfg.seeds}
        oamp_rows = [r for r in small_report.rows if r["method"] == "oamp"]
        for t, row in enumerate(oamp_rows):
            vals = [per_seed[s]["oamp"].cos2_u[t] for s in cfg.seeds]
            assert row["mean_cos2_u"] == pytest.approx(np.mean(vals), abs=1e-12)
            assert row["se_cos2_u"] == pytest.approx(
                np.std(vals, ddof=1) / np.sqrt(3), abs=1e-12)

    def test_seed_never_forms_right_factor(self, monkeypatch):
        """OAMP, AMP and PCA read only the eigenpairs of YY^T and Y: no
        seed forms V or the singular values."""
        caches = []

        def kept(Y, _real=harness.thin_svd):
            caches.append(_real(Y))
            return caches[-1]
        monkeypatch.setattr(harness, "thin_svd", kept)
        cfg = parse_config(SMALL, {"seeds": "1"})
        shrinkage = harness.ShrinkageSet(harness.build_spectrum(cfg), cfg.theta)
        predictions = harness.se_predictions(cfg, shrinkage)
        out = harness.run_single_seed(cfg, 1, shrinkage, predictions)
        assert set(out) == {"oamp", "amp", "pca"}
        assert all(isinstance(tr, IterationTrace) for tr in out.values())
        assert len(out["pca"].mse_v) == 1
        assert len(caches) == 1 and caches[0]._right is None

    @pytest.mark.parametrize("text", [SMALL, SMALL_BETA], ids=["mp", "beta_ri"])
    def test_parallel_matches_serial(self, text):
        serial = run_experiment(parse_config(text))
        report = run_experiment(parse_config(text, {"workers": "3"}))
        assert report.rows == serial.rows

    def test_seed_independent_objects_built_once(self, monkeypatch):
        calls = {"build_spectrum": 0, "ShrinkageSet": 0}
        for name in calls:
            def counted(*args, _real=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(harness, name, counted)
        report = run_experiment(parse_config(SMALL))
        assert report.metadata["n_seeds_used"] == 3
        assert calls == {"build_spectrum": 1, "ShrinkageSet": 1}

    def test_amp_on_ri_noise_logged_once(self, caplog):
        cfg = parse_config(SMALL_BETA, {"methods": "amp"})
        with caplog.at_level("WARNING", logger="rectoamp.harness"):
            run_experiment(cfg)
        notices = [r for r in caplog.records if "Gaussian AMP" in r.getMessage()]
        assert len(notices) == 1

    def test_failure_threshold(self, monkeypatch):
        cfg = parse_config(SMALL)
        real = harness.run_single_seed

        def flaky(cfg, seed, shrinkage, schedules):
            if seed != 0:
                raise ModelError("synthetic failure")
            return real(cfg, seed, shrinkage, schedules)

        monkeypatch.setattr(harness, "run_single_seed", flaky)
        with pytest.raises(HarnessError, match="seeds failed"):
            run_experiment(cfg)

    def test_single_failure_tolerated(self, monkeypatch):
        cfg = parse_config(SMALL, {"seeds": "0,1,2,3,4"})
        real = harness.run_single_seed

        def flaky(cfg, seed, shrinkage, schedules):
            if seed == 4:
                raise ModelError("synthetic failure")
            return real(cfg, seed, shrinkage, schedules)

        monkeypatch.setattr(harness, "run_single_seed", flaky)
        report = run_experiment(cfg)
        assert report.metadata["failures"] == {4: "synthetic failure"}
        assert report.metadata["n_seeds_used"] == 4

    def test_programming_error_propagates(self, monkeypatch):
        # only domain errors count as seed failures
        cfg = parse_config(SMALL)

        def broken(cfg, seed, shrinkage, schedules):
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
        assert meta["workers"] == 1
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["versions"] == {"rectoamp": rectoamp.__version__,
                                    "numpy": np.__version__}
        cfg = parse_config(SMALL)
        predictions = se_predictions(
            cfg, ShrinkageSet(build_spectrum(cfg), cfg.theta))
        assert meta["schedules"] == {
            "oamp": {k: getattr(predictions["oamp"], k)
                     for k in ("w1", "w2", "rho1", "rho2", "converged_at")},
            "amp": {"w1": predictions["amp"].w1, "w2": predictions["amp"].w2}}
        assert len(meta["schedules"]["oamp"]["rho1"]) == cfg.iters

    def test_workers_capped_at_seed_count(self):
        # se-only starts no pool, so the large value is never used
        cfg = parse_config(SMALL.replace("workers = 1", "workers = 64"),
                           {"methods": "se-only"})
        assert run_experiment(cfg).metadata["workers"] == 3

    def test_metadata_records_resolved_workers(self):
        cfg = parse_config(SMALL.replace("workers = 1\n", ""), {"methods": "se-only"})
        assert cfg.workers is None
        meta = run_experiment(cfg).metadata
        assert meta["workers"] == min(3, os.cpu_count() or 1)
        assert meta["config"]["workers"] is None

    def test_bad_path(self, small_report):
        with pytest.raises(HarnessError, match="cannot write"):
            emit_csv(small_report, "/nonexistent-dir/x.csv")


class TestCli:
    def test_no_args_usage(self, capsys):
        assert cli_main([]) == 2

    def test_missing_config(self, capsys):
        assert cli_main(["run", "/no/such/file.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "M = 400\nN = 200\n", "w0_u = 1.5\n", "w0_v = -0.1\n", "theta = nan\n",
        "theta = inf\n", "spectrum = beta\nbeta_lo = -1\n",
        "spectrum = beta\nbeta_lo = 3\n", "spectrum = beta\nbeta_a = 0\n",
        "workers = 0\n", "seeds = 1, 1\n", "seeds = 0, -1\n",
        "methods = pca,pca\n", "methods =\n", "prior_u = bernoulli\n",
        "M = ten\n", "delta = 0.5\n", "validate = 1\n", "noise = ri\n"],
        ids=["M_above_N", "w0_u", "w0_v", "theta_nan", "theta_inf", "beta_lo",
             "beta_empty_support", "beta_a", "workers_zero", "seeds_repeated",
             "seeds_negative", "methods_repeated", "methods_empty",
             "prior_unknown", "M_unparsable", "delta_key", "method_name_key",
             "noise_key"])
    def test_bad_config(self, tmp_path, capsys, text):
        p = tmp_path / "bad.cfg"
        p.write_text("M = 20\nN = 40\nseeds = 2\n" + text)
        assert cli_main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        key = text.partition("=")[0].strip()
        if key not in {f.name for f in fields(ExperimentConfig)}:
            assert repr(key) in err    # an unknown key is named

    @pytest.mark.parametrize("text,reason", [
        ("w0_u = 0\n", "without side information"),
        ("w0_v = 0.0\n", "without side information"),
        ("spectrum = beta\nbeta_lo = 0\nbeta_a = 0.5\n", "beta_a > 1")],
        ids=["w0_u_zero", "w0_v_zero", "beta_zero_edge"])
    def test_ill_posed_config(self, tmp_path, capsys, text, reason):
        p = tmp_path / "bad.cfg"
        p.write_text("M = 20\nN = 40\nseeds = 2\n" + text)
        assert cli_main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert reason in err

    def test_domain_error_in_setup(self, tmp_path, capsys):
        # a valid config whose spectrum the quadrature cannot normalize
        p = tmp_path / "beta.cfg"
        p.write_text("M = 20\nN = 40\nseeds = 2\nspectrum = beta\nbeta_a = 0.2\n")
        assert cli_main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_huge_theta_in_setup(self, tmp_path, capsys):
        # a finite theta whose shrinkage numerators cannot be finite
        p = tmp_path / "theta.cfg"
        p.write_text("M = 20\nN = 40\nseeds = 2\ntheta = 1e200\n")
        assert cli_main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SNR 1e+200 too large") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,code", [
        (["--delta", "0"], 2), (["--spectrum", "beta", "--beta-a", "0"], 2),
        (["--iters", "0"], 2), (["--theta", "1e80"], 1), (["--theta", "1e155"], 1),
        (["--theta", "9e76"], 1), (["--theta", "9.9e76"], 1), (["--theta", "1e30"], 1),
        # supports too narrow for the density or its Hilbert transform (or
        # their squares) to be finite at the nodes; the uniform law's
        # transform does not overflow, only its square does
        *[(["--spectrum", "beta", "--beta-lo", "0", "--beta-hi", hi, *law,
            "--iters", "1"], 1)
          for hi, law in [("5e-324", ["--beta-a", "2"]), ("1e-160", ["--beta-a", "2"]),
                          ("1e-200", ["--beta-a", "2"]),
                          ("1e-200", ["--beta-a", "1", "--beta-b", "1", "--delta", "1"])]]],
        ids=["delta_zero", "beta_a_zero", "iters_zero", "theta_1e80", "theta_1e155",
             "theta_9e76", "theta_9.9e76", "theta_1e30", "beta_width_5e-324",
             "beta_width_1e-160", "beta_width_1e-200", "uniform_width_1e-200"])
    def test_bad_se_args(self, capsys, recwarn, argv, code):
        assert cli_main(["se", "--theta", "2", *argv]) == code
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not recwarn.list
        if argv == ["--theta", "1e30"]:
            assert "SNR 1e+30 too large" in err
        if "--beta-hi" in argv:
            hi = argv[argv.index("--beta-hi") + 1]
            assert f"support [0.0, {hi}]" in err

    @pytest.mark.parametrize("argv", [
        ["se", "--theta", "2", "--delta", "2"], ["se", "--theta", "2", "--delta", "0"],
        ["se", "--theta", "2", "--w0", "1"], ["se", "--theta", "2", "--w0", "0"],
        ["se", "--theta", "nan"], ["se", "--theta", "2", "--spectrum", "beta",
                                   "--beta-a", "0"],
        ["se", "--theta", "2", "--iters", "0"],
        ["fixed-point", "--theta", "2", "--delta", "0"],
        ["fixed-point", "--theta", "2", "--w0", "0"],
        ["spectra-check", "--spectrum", "beta", "--beta-lo", "3", "--beta-hi", "1"]],
        ids=["se_delta_2", "se_delta_0", "se_w0_1", "se_w0_0", "se_theta_nan",
             "se_beta_a_0", "se_iters_0", "fp_delta_0", "fp_w0_0", "sc_beta_support"])
    def test_invalid_args_exit_before_work(self, capsys, monkeypatch, argv):
        def unreachable(*_):
            raise AssertionError("work started on invalid input")
        monkeypatch.setattr(cli, "build_spectrum", unreachable)
        monkeypatch.setattr(cli, "gaussian_fixed_point", unreachable)
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "M=" not in err and "N=" not in err

    @pytest.mark.parametrize("text", [
        "M = 100000000\nN = 100000000\nmethods = pca\n",
        # past what CPython will try to allocate for the seed tuple, so the
        # MemoryError comes without an allocation
        "seeds = 2000000000000000000\n",
        "seeds = 100000000000000000000\n"],
        ids=["observation_above_memory", "seeds_above_memory", "seeds_above_ssize_t"])
    def test_oversized_config(self, tmp_path, capsys, monkeypatch, text):
        def unreachable(*_):
            raise AssertionError("an instance was drawn")
        monkeypatch.setattr(harness, "make_instance", unreachable)
        p = tmp_path / "big.cfg"
        p.write_text("M = 20\nN = 40\nseeds = 1\n" + text)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "r")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_under_regular_file(self, tmp_path, capsys, monkeypatch):
        seeds = []
        real = harness.run_single_seed

        def counted(cfg, seed, *args):
            seeds.append(seed)
            return real(cfg, seed, *args)

        monkeypatch.setattr(harness, "run_single_seed", counted)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL + f"out = {blocker}/x\n")
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert seeds == []

    def test_late_write_failure(self, tmp_path, capsys):
        # the directory exists, but the CSV path is taken by a directory
        (tmp_path / "r.csv").mkdir()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL)
        assert cli_main(["run", str(cfg), "--methods", "se-only",
                         "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write CSV") and err.count("\n") == 1

    def test_se_spectrum_at_given_delta(self, capsys, monkeypatch):
        deltas = []
        shrinkage_set = cli.ShrinkageSet

        def recording(spectrum, theta):
            deltas.append(spectrum.delta)
            return shrinkage_set(spectrum, theta)

        monkeypatch.setattr(cli, "ShrinkageSet", recording)
        assert cli_main(["se", "--theta", "2", "--delta", "0.3", "--iters", "1"]) == 0
        assert deltas == [0.3]

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

    @pytest.mark.parametrize("argv", [["fixed-point"], ["se", "--iters", "3"]],
                             ids=["fixed_point", "se"])
    def test_fixed_point_at_the_threshold(self, capsys, argv):
        # theta 4e-12 below delta^(1/4) with side information 1e-6: the AMP
        # schedule takes about 4500 steps to settle
        assert cli_main([*argv, "--theta", "0.84089641525", "--w0", "0.000001"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("# gaussian fixed point: w1=" if "se" in argv else "w1=")

    def test_se_beta_prints_no_gaussian_fixed_point(self, capsys):
        # the Gaussian-noise fixed point is the OAMP limit on MP noise only,
        # so a Beta run neither prints it nor fails where it does not settle
        # (theta 1.5e-8 below MP's threshold delta^(1/4), w0 = 1e-8)
        assert cli_main(["se", "--spectrum", "beta", "--theta", "0.8408964",
                         "--iters", "3", "--w0", "0.00000001"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "# gaussian fixed point" not in out
        assert out.splitlines()[0] == "t w1 w2 cos2_u cos2_v mmse_u mmse_v"
        assert len(out.splitlines()) == 4

    def test_spectra_check_passes(self, capsys):
        assert cli_main(["spectra-check", "--theta", "2"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_spectra_check_names_each_atom_side(self, capsys, recwarn):
        assert cli_main(["spectra-check", "--spectrum", "beta", "--theta", "2"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        atoms = [l for l in lines if l.startswith("# atom at")]
        assert len(atoms) == 2
        assert atoms[0].startswith("# atom at lambda* = 6.898")
        assert atoms[0].endswith("(above the support)")
        assert atoms[1].startswith("# atom at lambda* = 0.943")
        assert atoms[1].endswith("(below the support)")
        assert len([l for l in lines if l.startswith("[PASS]")]) == 6
        assert err == "" and not recwarn.list

    def test_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL.replace("seeds = 3", "seeds = 2"))
        out = tmp_path / "res" / "run"
        assert cli_main(["run", str(cfg), "--out", str(out),
                         "--methods", "pca"]) == 0
        assert (tmp_path / "res" / "run.csv").exists()
        assert (tmp_path / "res" / "run.meta.json").exists()
