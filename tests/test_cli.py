import json

import pytest
import yaml

from vcslab import cli, config, errors
from vcslab.experiments import run_experiment


def small_vcs_config(**overrides):
    raw = {
        "kind": "vcs-verify",
        "title": "small suite",
        "anchor": "action-identity",
        "dim": 40,
        "seed": 0,
        "spectra": [
            {"form": "linear", "omega": 1.0, "offset": 0.3},
            {"form": "linear", "omega": 1.4142135623730951, "offset": 0.55},
        ],
        "params": {"family": "eds", "n_samples": 5, "j_max": [2.0, 2.0], "times": [0.5]},
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_valid(self):
        cfg = config.parse_config(small_vcs_config())
        assert cfg.kind == "vcs-verify"
        assert cfg.tolerances["action"] == 1e-9

    def test_unknown_top_key(self):
        with pytest.raises(errors.ConfigError):
            config.parse_config(small_vcs_config(bogus=1))

    def test_unknown_param_key(self):
        raw = small_vcs_config()
        raw["params"]["typo"] = 3
        with pytest.raises(errors.ConfigError):
            config.parse_config(raw)

    def test_unknown_tolerance_key(self):
        raw = small_vcs_config(tolerances={"not_a_toleranc": 1e-9})
        with pytest.raises(errors.ConfigError):
            config.parse_config(raw)

    def test_dim_below_minimum(self):
        with pytest.raises(errors.ConfigError):
            config.parse_config(small_vcs_config(dim=4))

    def test_dim_above_maximum(self):
        with pytest.raises(errors.ConfigError):
            config.parse_config(small_vcs_config(dim=5000))

    def test_unknown_kind(self):
        with pytest.raises(errors.ConfigError):
            config.parse_config(small_vcs_config(kind="frobnicate"))

    def test_nonpositive_tolerance(self):
        raw = small_vcs_config(tolerances={"action": 0.0})
        with pytest.raises(errors.ConfigError):
            config.parse_config(raw)

    def test_bad_spectrum_form(self):
        raw = small_vcs_config()
        raw["spectra"][0] = {"form": "cubic"}
        with pytest.raises(errors.ConfigError):
            config.parse_config(raw)

    def test_empty_grid_rejected(self):
        raw = small_vcs_config()
        raw["params"]["times"] = []
        with pytest.raises(errors.ConfigError):
            config.parse_config(raw)

    def test_witness_without_spectra_rejected(self):
        raw = small_vcs_config()
        raw["params"]["witness"] = {"dim": 30}
        with pytest.raises(errors.ConfigError, match="params.witness needs spectra"):
            config.parse_config(raw)


class TestBundledInventory:
    def test_expected_names_present(self):
        names = config.bundled_names()
        assert "example1-susy-qm" in names
        assert "resolution-eds" in names
        assert "boson-example2" in names
        assert "delta-zero-failure" in names

    def test_at_least_ten_bundles(self):
        assert len(config.bundled_names()) >= 10

    def test_all_bundles_parse(self):
        for name in config.bundled_names():
            cfg = config.load_bundled(name)
            assert cfg.anchor

    def test_unknown_bundle(self):
        with pytest.raises(errors.ConfigError):
            config.load_bundled("no-such-bundle")


class TestRunExperiment:
    def test_small_suite_passes(self):
        cfg = config.parse_config(small_vcs_config())
        report, tables = run_experiment(cfg)
        assert report.overall_pass
        assert tables == {}
        names = [c.name for c in report.checks]
        assert "action-identity-residual" in names
        assert all(c.anchor for c in report.checks)

    def test_seed_override_recorded(self):
        cfg = config.parse_config(small_vcs_config())
        report, _ = run_experiment(cfg, seed=17)
        assert report.seed == 17

    def test_jobs_parallel_same_result(self):
        cfg = config.parse_config(small_vcs_config())
        serial, _ = run_experiment(cfg, jobs=1)
        parallel, _ = run_experiment(cfg, jobs=4)
        for a, b in zip(serial.checks, parallel.checks):
            assert a.name == b.name
            assert a.value == b.value

    def test_zero_samples_rejected(self):
        raw = small_vcs_config()
        raw["params"]["n_samples"] = 0
        cfg = config.parse_config(raw)
        with pytest.raises(errors.ConfigError):
            run_experiment(cfg)

    def test_single_grid_size_rejected(self):
        raw = {
            "kind": "susy-grid",
            "seed": 0,
            "params": {"w_coeffs": [0.0, 1.0], "sizes": [128]},
        }
        cfg = config.parse_config(raw)
        with pytest.raises(errors.ConfigError):
            run_experiment(cfg)


class TestCliEntryPoint:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "example1-susy-qm" in out
        assert len(out) >= 10

    def test_run_bundled_writes_report(self, tmp_path, capsys):
        code = cli.main(["run", "boson-example2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "boson-example2.report.json").read_text())
        assert report["overall_pass"] is True
        assert any(c["name"] == "n1-closed-form" for c in report["checks"])
        assert (tmp_path / "boson-example2.summary.txt").exists()

    def test_run_config_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(small_vcs_config()))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "exp.report.json").exists()

    def test_run_writes_tables(self, tmp_path):
        code = cli.main(["run", "delta-zero-failure", "--out", str(tmp_path)])
        assert code == 0

    def test_exit_two_on_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(small_vcs_config(dim=4)))
        assert cli.main(["run", str(path)]) == 2

    def test_exit_two_on_witness_without_spectra(self, tmp_path):
        raw = small_vcs_config()
        raw["params"]["witness"] = {"dim": 30}
        path = tmp_path / "witness.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path)]) == 2

    def test_exit_two_on_malformed_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: [unclosed")
        assert cli.main(["run", str(path)]) == 2

    def test_exit_two_on_missing_config(self):
        assert cli.main(["run", "definitely-not-there"]) == 2

    def test_exit_one_on_failed_check(self, tmp_path):
        raw = small_vcs_config(tolerances={"action": 1e-30})
        path = tmp_path / "strict.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_deterministic_reports(self, tmp_path):
        for sub in ("a", "b"):
            code = cli.main(["run", "delta-zero-failure", "--out", str(tmp_path / sub)])
            assert code == 0

        def stripped(sub):
            text = (tmp_path / sub / "delta-zero-failure.report.json").read_text()
            return [
                line
                for line in text.splitlines()
                if '"timestamp"' not in line and '"wall_time_s"' not in line
            ]

        assert stripped("a") == stripped("b")
