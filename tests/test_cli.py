import dataclasses
import json
import math
import sys
import warnings

import numpy as np
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


def small_resolution_config(**params):
    return {
        "kind": "resolution",
        "dim": 16,
        "spectra": [{"form": "linear", "omega": 1.0}, {"form": "linear", "omega": 1.0}],
        "params": {"family": "delta", "delta": 0.5, **params},
    }


def small_grid_config(**params):
    return {"kind": "susy-grid", "params": {"w_coeffs": [0.0, 1.0], "sizes": [64, 128], **params}}


def with_spectrum(raw, **entry):
    raw["spectra"][0] = entry
    return raw


def with_param(raw, key, value):
    raw["params"][key] = value
    return raw


# (case, config, key path the error must name)
MALFORMED = [
    ("omega-text", with_spectrum(small_vcs_config(), form="linear", omega="abc"), "spectra[0].omega"),
    ("times-text", with_param(small_vcs_config(), "times", ["x"]), "params.times[0]"),
    ("n-samples-text", with_param(small_vcs_config(), "n_samples", "many"), "params.n_samples"),
    ("n-samples-float", with_param(small_vcs_config(), "n_samples", 2.7), "params.n_samples"),
    ("n-samples-bool", with_param(small_vcs_config(), "n_samples", True), "params.n_samples"),
    ("gamma-max-bool", with_param(small_vcs_config(), "gamma_max", True), "params.gamma_max"),
    ("gamma-max-negative", with_param(small_vcs_config(), "gamma_max", -1.0), "params.gamma_max"),
    ("j-max-negative", with_param(small_vcs_config(), "j_max", [-1.0, 1.0]), "params.j_max[0]"),
    ("n-nodes-text", small_resolution_config(n_nodes="x"), "params.n_nodes"),
    ("n-nodes-too-few", small_resolution_config(n_nodes=0), "params.n_nodes"),
    ("k-check-negative", small_resolution_config(k_check=-1), "params.k_check"),
    ("horizon-negative", small_resolution_config(horizons=[-10]), "params.horizons"),
    ("demo-one-horizon", small_resolution_config(delta=0.0, horizons=[100.0]), "params.horizons"),
    ("j-max-length", with_param(small_vcs_config(), "j_max", [1.0]), "params.j_max"),
    (
        "resolution-unequal-spacing",
        with_spectrum(small_resolution_config(), form="quon", q=0.5),
        "spectra[0]",
    ),
    ("domain-one-entry", small_grid_config(domain=[1]), "params.domain"),
    ("map-coeffs-text", small_grid_config(map_coeffs=["a"]), "params.map_coeffs[0]"),
    (
        "l-max-negative",
        {"kind": "map-equality-probe", "dim": 8, "params": {"l_max": -1}},
        "params.l_max",
    ),
    ("q-above-one", {"kind": "map-equality-probe", "dim": 8, "params": {"q": 2.0}}, "params.q"),
    (
        "q-values-above-one",
        {"kind": "nonisospectral", "dim": 8, "params": {"case": "quon", "q_values": [1.5]}},
        "params.q_values[0]",
    ),
    ("hbar-negative", small_grid_config(hbar=-1.0), "params.hbar"),
    ("domain-reversed", small_grid_config(domain=[5.0, 1.0]), "params.domain"),
    ("n-modes-zero", small_grid_config(n_modes=0), "params.n_modes"),
    (
        "grid-with-spectra",
        {**small_grid_config(), "spectra": [{"form": "linear"}]},
        "params.sizes, not dim or spectra",
    ),
    (
        "values-not-monotone",
        with_spectrum(small_vcs_config(dim=8), form="values", values=[0.1, 0.5, 0.3, 1, 2, 3, 4, 5]),
        "spectra[0]",
    ),
    (
        "values-too-short",
        with_spectrum(small_vcs_config(), form="values", values=[0.1, 0.5, 2.0]),
        "spectra[0].values",
    ),
    (
        "spectrum-dim-differs",
        with_spectrum(small_vcs_config(dim=60), form="linear", dim=10),
        "spectra[0]",
    ),
    (
        "values-with-omega-and-offset",
        with_spectrum(
            small_vcs_config(dim=8), form="values", values=[0.3, 1, 2, 3, 4, 5, 6, 7], omega=7, offset=100
        ),
        "spectra[0].omega",
    ),
    ("linear-with-q", with_spectrum(small_vcs_config(), form="linear", q=0.5), "spectra[0].q"),
    ("spectrum-scale", with_spectrum(small_vcs_config(), form="linear", scale=2.0), "spectra[0]"),
    (
        "nonisospectral-with-spectra",
        {"kind": "nonisospectral", "dim": 8, "spectra": [{"form": "linear"}]},
        "spectra is not read",
    ),
    (
        "map-probe-with-spectra",
        {"kind": "map-equality-probe", "dim": 8, "spectra": [{"form": "linear"}]},
        "spectra is not read",
    ),
    (
        "witness-dim-too-small",
        with_param(
            small_vcs_config(), "witness", {"dim": 4, "spectra": [{"form": "quon", "q": 0.5}]}
        ),
        "params.witness.dim",
    ),
]


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
        with pytest.raises(errors.ConfigError, match="params.witness.spectra is required"):
            config.parse_config(raw)

    def test_dim_and_spectra_cannot_disagree(self):
        cfg = config.parse_config(small_vcs_config())
        with pytest.raises(errors.ConfigError, match="parse the config again"):
            dataclasses.replace(cfg, dim=80)

    def test_echo_keeps_the_mappings_as_parsed(self):
        raw = small_vcs_config()
        cfg = config.parse_config(raw)
        raw["spectra"][0]["omega"] = 9.0
        raw["params"]["n_samples"] = 9
        assert cfg.echo()["spectra"][0]["omega"] == 1.0
        assert cfg.echo()["params"]["n_samples"] == 5

    @pytest.mark.parametrize("raw, where", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
    def test_malformed_value_names_its_key(self, raw, where, tmp_path, capsys):
        with pytest.raises(errors.ConfigError) as info:
            config.parse_config(raw)
        assert where in str(info.value)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_numeric_strings_parse_as_floats(self, tmp_path):
        # PyYAML reads 1e2 and 1.0e3 as strings
        raw = yaml.safe_dump(small_resolution_config()).replace(
            "delta: 0.5", "delta: 0.5\n  horizons: [1e2, 1.0e3]"
        )
        path = tmp_path / "strings.yaml"
        path.write_text(raw)
        cfg = config.load_config(path)
        assert cfg.params.horizons == (100.0, 1000.0)
        assert cfg.echo()["params"]["horizons"] == ["1e2", "1.0e3"]
        as_strings, strings_tables = run_experiment(cfg)
        as_floats, floats_tables = run_experiment(
            config.parse_config(small_resolution_config(horizons=[100.0, 1000.0]))
        )
        assert [(c.name, c.value) for c in as_strings.checks] == [
            (c.name, c.value) for c in as_floats.checks
        ]
        assert strings_tables == floats_tables

    def test_integers_in_float_fields_run_as_floats(self):
        raw = small_vcs_config()
        raw["spectra"][0] = {"form": "linear", "omega": 1, "offset": 0.3}
        raw["params"].update(j_max=[2, 2], gamma_max=3, times=[1])
        as_ints, _ = run_experiment(config.parse_config(raw))
        raw["spectra"][0]["omega"] = 1.0
        raw["params"].update(j_max=[2.0, 2.0], gamma_max=3.0, times=[1.0])
        as_floats, _ = run_experiment(config.parse_config(raw))
        assert as_ints.overall_pass
        assert [(c.name, c.value) for c in as_ints.checks] == [
            (c.name, c.value) for c in as_floats.checks
        ]


class TestConfigLoading:
    """Spectrum entries are built into sequences at parse time."""

    @staticmethod
    def only_spectrum(**entry):
        raw = small_vcs_config(dim=8)
        raw["spectra"] = [entry]
        raw["params"]["j_max"] = [2.0]
        (seq,) = config.parse_config(raw).spectra
        return seq

    def test_linear_tag(self):
        s = self.only_spectrum(form="linear", omega=2.0)
        np.testing.assert_array_equal(s.values, 2.0 * np.arange(8))

    def test_quon_tag(self):
        s = self.only_spectrum(form="quon", q=0.5)
        np.testing.assert_allclose(s.values[:4], [0, 1, 1.5, 1.75])

    def test_explicit_values(self):
        values = [0.1, 0.5, 2.0, 2.5, 3.0, 4.0, 7.0, 9.0]
        s = self.only_spectrum(form="values", values=values)
        np.testing.assert_array_equal(s.values, values)

    def test_unknown_form(self):
        with pytest.raises(errors.ConfigError, match=r"spectra\[0\]\.form"):
            self.only_spectrum(form="cubic")


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

    def test_zero_samples_rejected(self):
        raw = small_vcs_config()
        raw["params"]["n_samples"] = 0
        with pytest.raises(errors.ConfigError, match="params.n_samples"):
            config.parse_config(raw)

    def test_single_grid_size_rejected(self):
        raw = {
            "kind": "susy-grid",
            "seed": 0,
            "params": {"w_coeffs": [0.0, 1.0], "sizes": [128]},
        }
        with pytest.raises(errors.ConfigError, match="params.sizes"):
            config.parse_config(raw)


class TestBosonDimLimit:
    """The boson case of ``nonisospectral`` forms ``exp(e) e (e - 1)`` with
    ``e = dim - 1``: the config rejects a ``dim`` at which that leaves the
    float range."""

    LIMIT = config.BOSON_EXP_DIM_MAX

    def raw(self, dim, case="boson"):
        return {"kind": "nonisospectral", "dim": dim, "params": {"case": case}}

    def test_limit_is_where_the_largest_product_leaves_the_float_range(self):
        top = self.LIMIT - 1
        assert math.isfinite(math.exp(top) * top * (top - 1))
        assert top + 1 + math.log((top + 1) * top) > math.log(sys.float_info.max)
        assert self.LIMIT == 697

    def test_limit_runs_without_warnings_and_one_more_overflows(self):
        cfg = config.parse_config(self.raw(self.LIMIT))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, _ = run_experiment(cfg)
        assert all(math.isfinite(c.value) for c in report.checks)
        # past the limit, with the parse-time check skipped, the run overflows
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run_experiment(dataclasses.replace(cfg, dim=self.LIMIT + 1))

    def test_one_past_the_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "boson.yaml"
        path.write_text(yaml.safe_dump(self.raw(self.LIMIT + 1)))
        assert cli.main(["run", str(path)]) == 2
        assert f"config error: dim {self.LIMIT + 1} exceeds {self.LIMIT}" in capsys.readouterr().err

    def test_quon_case_is_unaffected(self):
        assert config.parse_config(self.raw(self.LIMIT + 1, "quon")).dim == self.LIMIT + 1


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

    def test_exit_one_on_overflowing_resolution(self, tmp_path, capsys):
        # dim 240 overflows the linear-domain factorial products
        raw = small_resolution_config(n_nodes=121)
        raw["dim"] = 240
        path = tmp_path / "d240.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "experiment failed: factorial products overflow" in capsys.readouterr().err

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
