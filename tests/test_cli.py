import dataclasses
import json
import math
import sys
import time
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml

from vcslab import cli, config, errors, spectra
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


def small_example_config(**params):
    return {
        "kind": "intertwine-example",
        "dim": 8,
        "spectra": [{"form": "linear", "omega": 1.0}, {"form": "linear", "omega": 1.5}],
        "params": params,
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
    ("horizon-negative", small_resolution_config(horizons=[-10]), "params.horizons"),
    # a key a resolution run never reads
    ("eds-delta", small_resolution_config(family="eds"), "params.delta is not read"),
    # an inverted window, as written or against the other bound's default
    (
        "decay-window-inverted",
        {**small_resolution_config(), "tolerances": {"decay_low": 1.3, "decay_high": 0.7}},
        "tolerances.decay_low 1.3 exceeds tolerances.decay_high 0.7",
    ),
    (
        "exponent-window-inverted",
        {**small_grid_config(), "tolerances": {"exponent_low": 2.5}},
        "tolerances.exponent_low 2.5 exceeds tolerances.exponent_high 2.3",
    ),
    (
        "zero-regulator-window-inverted",
        {**small_resolution_config(delta=0.0), "tolerances": {"decay_low": 0.2, "decay_high": -0.2}},
        "tolerances.decay_low 0.2 exceeds tolerances.decay_high -0.2",
    ),
    # a window's bounds take either sign, but stay finite; a one-sided tolerance stays > 0
    *(
        (case, {**small_resolution_config(), "tolerances": {key: value}}, f"tolerances.{key}")
        for case, key, value in [
            ("decay-high-infinite", "decay_high", math.inf),
            ("decay-low-nan", "decay_low", math.nan),
            ("moment-tolerance-zero", "moment", 0.0),
            ("diagonal-tolerance-negative", "diagonal", -1e-7),
        ]
    ),
    ("demo-one-horizon", small_resolution_config(delta=0.0, horizons=[100.0]), "params.horizons"),
    ("one-horizon", small_resolution_config(horizons=[1000.0]), "params.horizons"),
    ("eds-one-horizon", small_resolution_config(family="eds", horizons=[1000.0]), "params.horizons"),
    ("repeated-horizons", small_resolution_config(horizons=[1000.0, 1000.0]), "params.horizons"),
    ("repeated-sizes", small_grid_config(sizes=[256, 256]), "params.sizes"),
    # phase-independence compares members: with one gamma it read 0.0 and passed
    ("one-gamma", small_example_config(gammas=[0.7]), "params.gammas"),
    ("repeated-gammas", small_example_config(gammas=[0.7, 0.7]), "params.gammas"),
    ("j-max-length", with_param(small_vcs_config(), "j_max", [1.0]), "params.j_max"),
    # the top shifted level of spectra[0] at dim 60 is 59: some seeds raised
    # TailTooLargeError at run time, the rest wrote a failing report
    ("j-max-above-top-level", with_param(small_vcs_config(dim=60), "j_max", [66.0, 4.0]), "params.j_max[0]"),
    (
        "resolution-unequal-spacing",
        with_spectrum(small_resolution_config(), form="quon", q=0.5),
        "spectra[0]",
    ),
    ("domain-one-entry", small_grid_config(domain=[1]), "params.domain"),
    ("map-coeffs-text", small_grid_config(map_coeffs=["a"]), "params.map_coeffs[0]"),
    ("map-coeffs-null", small_grid_config(map_coeffs=None), "params.map_coeffs"),
    # keys of the retired checks that no config could move, and of the
    # retired knobs (hbar and mass rescale the grid; k_check and delta_probe
    # had one value): unknown now
    ("hbar-removed", small_grid_config(hbar=1.0), "['hbar'] in params"),
    ("mass-removed", small_grid_config(mass=1.0), "['mass'] in params"),
    ("k-check-removed", small_resolution_config(k_check=15), "['k_check'] in params"),
    ("delta-probe-removed", small_resolution_config(delta=0.0, delta_probe=0.5), "['delta_probe'] in params"),
    ("l-max-removed", {"kind": "map-equality-probe", "dim": 8, "params": {"l_max": 4}}, "['l_max'] in params"),
    (
        "order-tolerance-removed",
        {"kind": "map-equality-probe", "dim": 8, "tolerances": {"order": 1e-10}},
        "['order'] in tolerances",
    ),
    (
        "hermiticity-tolerance-removed",
        {**small_resolution_config(), "tolerances": {"hermiticity": 1e-12}},
        "['hermiticity'] in tolerances",
    ),
    (
        "entry-drift-tolerance-removed",
        {**small_resolution_config(delta=0.0), "tolerances": {"entry_drift": 0.05}},
        "['entry_drift'] in tolerances",
    ),
    ("q-above-one", {"kind": "map-equality-probe", "dim": 8, "params": {"q": 2.0}}, "params.q"),
    (
        "commutant-tolerance-removed",
        {"kind": "map-equality-probe", "dim": 8, "tolerances": {"commutant": 1e-10}},
        "['commutant'] in tolerances",
    ),
    (
        "q-values-above-one",
        {"kind": "nonisospectral", "dim": 8, "params": {"case": "quon", "q_values": [1.5]}},
        "params.q_values[0]",
    ),
    ("times-same-label", with_param(small_vcs_config(), "times", [1.0, 1.0000001]), "params.times[1]"),
    (
        "q-values-same-label",
        {"kind": "nonisospectral", "dim": 8, "params": {"case": "quon", "q_values": [0.5, 0.3, 0.5]}},
        "params.q_values[2]",
    ),
    (
        "repeated-cases",
        {"kind": "map-equality-probe", "dim": 8, "params": {"cases": ["boson", "boson"]}},
        "params.cases[1]",
    ),
    ("domain-reversed", small_grid_config(domain=[5.0, 1.0]), "params.domain"),
    ("domain-empty", small_grid_config(domain=[1.0, 1.0]), "params.domain"),
    ("n-modes-zero", small_grid_config(n_modes=0), "params.n_modes"),
    # N1 on the 63 bonds of the 64-point grid has 63 modes: a request past
    # them was cut short at run time, and the table reported the count used
    ("n-modes-above-the-smallest-grid", small_grid_config(n_modes=64), "params.n_modes 64 exceeds the 63 modes"),
    ("vcs-eds-delta", with_param(small_vcs_config(), "delta", 7.0), "params.delta is not read by the eds family"),
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
    # the witness's j is bounded as j_max is; both raised at run time and exited 1
    (
        "witness-j-negative",
        with_param(small_vcs_config(), "witness", {"spectra": [{"form": "linear"}], "j": [-1.0]}),
        "params.witness.j[0]",
    ),
    (
        "witness-j-above-top-level",
        with_param(small_vcs_config(), "witness", {"spectra": [{"form": "linear"}], "j": [60.0]}),
        "params.witness.j[0]",
    ),
    # a state's own intensity may not reach the top level, where series_norm
    # has no tail bound; this one parsed and then exited 1 with no report
    (
        "witness-j-at-top-level",
        with_param(small_vcs_config(), "witness", {"spectra": [{"form": "linear"}], "j": [39.0]}),
        "params.witness.j[0]",
    ),
    # the top shifted level is the top level less the ground: 39 here too
    (
        "witness-j-at-offset-top-level",
        with_param(small_vcs_config(), "witness", {"spectra": [{"form": "linear", "offset": 0.5}], "j": [39.0]}),
        "params.witness.j[0]",
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

    def test_replaced_params_run_with_their_own_family(self):
        bundle = resources.files("vcslab") / "configs" / "vcs-delta-properties.yaml"
        raw = yaml.safe_load(bundle.read_text(encoding="utf-8"))
        cfg = config.parse_config(raw)
        replaced = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, delta=0.9))
        raw["params"]["delta"] = 0.9
        parsed = config.parse_config(raw)

        def values(c):
            return [check.value for check in run_experiment(c)[0].checks]

        assert values(replaced) == values(parsed) != values(cfg)
        assert replaced.family.delta == parsed.family.delta == 0.9
        with pytest.raises(errors.ConfigError, match="params.delta"):
            dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, delta=-1.0))

    def test_equal_window_bounds_parse(self):
        # a one-point window admits exactly its bound
        raw = {**small_resolution_config(), "tolerances": {"decay_low": 1.0, "decay_high": 1.0}}
        assert config.parse_config(raw).tolerances["decay_low"] == 1.0
        raw = {**small_grid_config(), "tolerances": {"exponent_low": 2.3}}
        assert config.parse_config(raw).tolerances["exponent_high"] == 2.3

    def test_signed_window_bounds_parse(self, tmp_path):
        # an exponent is signed: a window's bounds may be zero or negative
        raw = {**small_resolution_config(delta=0.0), "tolerances": {"decay_low": -0.2, "decay_high": 0.0}}
        cfg = config.parse_config(raw)
        assert (cfg.tolerances["decay_low"], cfg.tolerances["decay_high"]) == (-0.2, 0.0)
        raw = {**small_grid_config(), "tolerances": {"exponent_low": -1.0, "exponent_high": 0.0}}
        assert config.parse_config(raw).tolerances["exponent_low"] == -1.0
        # the zero-regulator exponent, -0.0, passes the window [-0.2, 0.0] from a file too
        path = tmp_path / "signed.yaml"
        path.write_text(yaml.safe_dump({**small_resolution_config(delta=0.0), "tolerances": cfg.tolerances}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_echo_keeps_the_mappings_as_parsed(self):
        raw = small_vcs_config()
        cfg = config.parse_config(raw)
        raw["spectra"][0]["omega"] = 9.0
        raw["params"]["n_samples"] = 9
        assert cfg.echo()["spectra"][0]["omega"] == 1.0
        assert cfg.echo()["params"]["n_samples"] == 5

    def test_j_max_may_reach_the_top_shifted_level(self):
        # uniform draws never reach j_max itself, so the top level parses and
        # the next float above it does not
        top = spectra.shift(config.parse_config(small_vcs_config(dim=60)).spectra[1]).values[-1]
        raw = with_param(small_vcs_config(dim=60), "j_max", [2.0, top])
        assert config.parse_config(raw).params.j_max == (2.0, top)
        raw = with_param(small_vcs_config(dim=60), "j_max", [2.0, float(np.nextafter(top, np.inf))])
        with pytest.raises(errors.ConfigError, match=r"params\.j_max\[1\]"):
            config.parse_config(raw)

    def test_witness_j_just_below_the_top_shifted_level_runs(self, tmp_path, capsys):
        # the next float below the top level parses and builds its state: the
        # run writes a report, whose tail bound fails
        top = 39.0  # spectra: [linear] at dim 40
        j = float(np.nextafter(top, 0.0))
        raw = with_param(small_vcs_config(), "witness", {"spectra": [{"form": "linear"}], "j": [j]})
        assert config.parse_config(raw).params.witness.j == (j,)
        path = tmp_path / "witness.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "witness.report.json").read_text())
        tail = next(c for c in report["checks"] if c["name"] == "truncation-tail-bound")
        assert math.isfinite(tail["value"]) and not tail["passed"]

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
        # below the top shifted level of every entry used here (1.98 for quon q = 0.5)
        raw["params"]["j_max"] = [1.5]
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

    def test_n_modes_may_reach_the_modes_of_the_smallest_grid(self):
        cfg = config.parse_config(small_grid_config(n_modes=63, sizes=[128, 64]))
        assert cfg.params.n_modes == 63

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

    def test_resolution_past_the_float_range_of_its_products_runs(self, tmp_path):
        # the factorial products of dim 240 overflow the float range, their
        # logs do not; n_nodes is accepted and not read
        raw = {**small_resolution_config(n_nodes=121), "dim": 240}
        path = tmp_path / "d240.yaml"
        path.write_text(yaml.safe_dump(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "d240.report.json").read_text())
        raw["params"]["n_nodes"] = 1
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "again")]) == 0
        again = json.loads((tmp_path / "again" / "d240.report.json").read_text())
        assert [c["value"] for c in again["checks"]] == [c["value"] for c in report["checks"]]

    @pytest.mark.parametrize(
        "override",
        [
            # hbar = 1e300: the domain over kappa = 1e300, W(kappa y)
            {"domain": [-1.2e-299, 1.2e-299], "w_coeffs": [0.0, 1e300]},
            {"domain": [0.0, 1e-300]},
            {"w_coeffs": [0.0, 1e160]},
            # hbar = 1e-160 with W = 1e-160 x, rescaled as above
            {"domain": [-1.2e161, 1.2e161], "w_coeffs": [0.0, 1e-320]},
        ],
        ids=["hbar", "domain", "superpotential", "underflow"],
    )
    def test_exit_one_on_an_overflowing_grid(self, override, tmp_path, capsys):
        # 1 / dx or W puts a a+ out of the float range: the run stops
        # before the eigensolver, which would otherwise fail on a non-finite
        # band (the underflowing grid raised a LinAlgError with a traceback)
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "susy-grid-linear.yaml").read_text())
        raw["params"].update(override)
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "experiment failed: grid ladder entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, failure",
        [
            # W is below the rounding of c / dx: a a+ and the target agree exactly
            ({}, "power-law fit needs positive data"),
            ({"map_coeffs": [0, 0, 1]}, "map [0.0, 0.0, 1.0] of N1 and its target, bounded by"),
        ],
        ids=["identity", "squared"],
    )
    def test_hbar_1e100_stops_on_a_named_failure(self, override, failure, tmp_path, capsys):
        # the residuals were inf from hbar = 1e100 on, so the exponents read
        # NaN: now every admitted value is finite, and the squared map, whose
        # N1^2 could leave the float range, is not admitted.  The grid of
        # hbar = 1e100 is the domain over kappa = 1e100, with W(kappa y)
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "susy-grid-linear.yaml").read_text())
        raw["params"].update(domain=[-1.2e-99, 1.2e-99], w_coeffs=[0.0, 1e100], **override)
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"experiment failed: {failure}" in capsys.readouterr().err

    def test_exit_one_on_a_zero_grid_map(self, tmp_path, capsys):
        # both sides of the comparison vanish, so the power-law fit has no
        # positive data: a failed run, not a config error
        raw = small_grid_config(map_coeffs=[0.0], sizes=[256, 512], n_modes=8)
        path = tmp_path / "zero-map.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "experiment failed: power-law fit needs positive data" in err
        assert "config error:" not in err

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

    @pytest.mark.parametrize("key", ["output", "--out"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_path_through_a_file_exits_two(self, tmp_path, capsys, key, below):
        # checked before the run: no traceback, and the key is named
        (tmp_path / "afile").write_text("")
        target = str(tmp_path / "afile" / "sub") if below else str(tmp_path / "afile")
        raw = small_vcs_config(**({"output": target} if key == "output" else {}))
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        extra = ["--out", target] if key == "--out" else []
        assert cli.main(["run", str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} " in err and "a file" in err

    @pytest.mark.parametrize("bundle", ["vcs-eds-properties", "boson-example2"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, bundle):
        # the config's rule, seed >= 0, holds for the flag too, on every kind
        assert cli.main(["run", bundle, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "config error: --seed -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_wall_time_is_the_runs_own_duration(self):
        cfg = config.parse_config(small_resolution_config())
        before = time.perf_counter()
        report, _ = run_experiment(cfg)
        assert 0.0 < report.wall_time_s <= time.perf_counter() - before
