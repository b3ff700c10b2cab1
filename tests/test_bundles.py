"""Every shipped bundle, run as shipped: it passes, with exactly its checks,
every check value and table matches the golden file, and every record keeps
the keys a report reader needs.  The ``CHECKS`` rows of every kind are
checked here too: their comparators, their tolerances, and their verdicts at
and one float either side of each bound.

The acceptance tests call the library directly; this is the one tier-1 test
that runs each bundled config through ``run_experiment``, so a fault in a
runner (a sign, a worst-case reduction, a dropped check) fails here, and so
does a value that moves.  A RuntimeWarning (an overflow, say) fails too.
Each bundle runs once per session; every test here reads that run.
"""

import dataclasses
import functools
import json
import math
from importlib import resources

import golden
import pytest
import yaml

from vcslab import config
from vcslab.experiments import run_experiment
from vcslab.reporting import CheckRecord

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_COMPANION = [
    "hermiticity[alpha]",
    "weak-intertwining[beta]",
    "eigenvalue-transport[gamma]",
    "phase-independence",
    "shifted-hamiltonian-factorization",
]
_RESOLUTION = [
    "moment-verification",
    "offdiagonal-decay-exponent",
]
_GRID = [
    "commutator-residual-finest",
    "commutator-scaling-exponent",
    "partner-comparison-scaling-exponent",
]
_VCS = [
    "truncation-tail-bound",
    "action-identity-residual",
    "annihilation-eigenstate-residual",
    "temporal-stability-residual[t=0.1]",
    "temporal-stability-residual[t=1]",
    "temporal-stability-residual[t=10]",
]

SHIPPED_CHECKS = {
    "boson-example2": [
        "n1-closed-form",
        "companion-closed-form",
        "squared-map-closed-form",
        "exponential-map-closed-form",
        "certificate-beta",
        "certificate-gamma",
    ],
    "delta-zero-failure": _RESOLUTION,
    "example1-susy-qm": _COMPANION,
    "example2-squared-intertwiner": _COMPANION,
    "example3-cubed-intertwiner": _COMPANION,
    "example4-ladder-product": _COMPANION,
    "map-equality-probes": [f"map-equality-residual[{case}]" for case in ("boson", "quon", "invertible")],
    "mismatched-phase-failure": _VCS,
    "quon-closed-forms": [
        *(f"{form}-closed-form[q={q}]" for q in (0.3, 0.5, 0.9) for form in ("n1", "companion")),
        "undeformed-limit-matches-plain-ladder",
    ],
    "resolution-delta": _RESOLUTION,
    "resolution-eds": _RESOLUTION,
    "susy-grid-anharmonic": _GRID,
    "susy-grid-linear": _GRID,
    "vcs-delta-properties": _VCS,
    "vcs-eds-properties": _VCS,
}


def test_every_shipped_bundle_is_listed():
    assert sorted(SHIPPED_CHECKS) == config.bundled_names()


#: schema fields that no shipped bundle sets, each with its reason
UNSET_FIELDS = {
    ("SusyGridParams", "map_coeffs"): "set by perfbench's susy-grid-linear.squared item",
    ("Spectrum", "values"): "the arbitrary-spectrum form (ROADMAP item 15)",
    ("ResolutionParams", "n_nodes"): "not read; accepted for perfbench's resolution .d160 items (ROADMAP item 8)",
}


def test_every_schema_field_is_set_by_a_shipped_bundle():
    # a field that no bundle sets and no reason keeps is a knob with one value
    set_fields = set()

    def spectra(entries):
        set_fields.update(("Spectrum", key) for entry in entries for key in entry)

    for bundle in config.bundled_names():
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / f"{bundle}.yaml").read_text())
        params = raw.get("params", {})
        set_fields.update((config.KINDS[raw["kind"]].__name__, key) for key in params)
        spectra(raw.get("spectra", []))
    schemas = [*config.KINDS.values(), config.Spectrum]
    every = {(cls.__name__, f.name) for cls in schemas for f in dataclasses.fields(cls) if f.init}
    assert every - set_fields == set(UNSET_FIELDS)


def row_keys(tolerance, comparator) -> tuple:
    """The tolerances a row names: two for ``within`` (low, then high), else one."""
    return tolerance if comparator == "within" else (tolerance,)


def either_side(bound: float) -> tuple:
    """One float below ``bound``, ``bound`` itself, and one float above it."""
    return math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)


@pytest.mark.parametrize("kind", sorted(config.KINDS))
def test_every_check_row_is_judged_by_its_kinds_tolerance_or_a_number(kind):
    schema = config.KINDS[kind]
    for name, (anchor, tolerance, comparator) in schema.CHECKS.items():
        assert anchor, name
        assert comparator in ("<=", "within"), name
        keys = row_keys(tolerance, comparator)
        assert len(keys) == (2 if comparator == "within" else 1), name
        assert all(isinstance(key, float) or key in schema.TOLERANCES for key in keys), name
        # the row as its kind's defaults judge it
        bounds = [schema.TOLERANCES[key] if isinstance(key, str) else key for key in keys]
        judged = tuple(bounds) if comparator == "within" else bounds[0]
        for value in (math.nan, math.inf, -math.inf):
            assert not CheckRecord(name, anchor, value, judged, comparator).passed, (name, value)
        for value in (v for bound in bounds for v in either_side(bound)):
            # a window fails exactly when its floor or its ceiling would fail
            floor, ceiling = value >= bounds[0], value <= bounds[-1]
            expected = {"<=": ceiling, "within": floor and ceiling}[comparator]
            assert CheckRecord(name, anchor, value, judged, comparator).passed is expected, (name, value)


@pytest.mark.parametrize("kind", sorted(config.KINDS))
def test_every_tolerance_is_read_by_a_check_row(kind):
    schema = config.KINDS[kind]
    read = {key for _, tolerance, comparator in schema.CHECKS.values() for key in row_keys(tolerance, comparator)}
    assert set(schema.TOLERANCES) <= read


def test_the_shipped_bundles_report_every_check_row():
    # a row's base name is the check's name up to any ``[...]``
    shipped = {}
    for bundle, names in SHIPPED_CHECKS.items():
        kind = config.load_bundled(bundle).kind
        shipped.setdefault(kind, set()).update(name.split("[")[0] for name in names)
    assert shipped == {kind: set(schema.CHECKS) for kind, schema in config.KINDS.items()}


@functools.cache
def shipped_run(bundle):
    return run_experiment(config.load_bundled(bundle))


def moved_cells(got_lines, want_lines) -> list:
    """The cells of a table that differ: headers exactly, numbers beyond ``golden.REL_BOUND``."""
    assert len(got_lines) == len(want_lines)
    moved = []
    for row, (got, want) in enumerate(zip(got_lines, want_lines)):
        if want.startswith("#"):
            if got != want:
                moved.append((row, got, want))
            continue
        cells = list(zip(got.split("\t"), want.split("\t"), strict=True))
        moved += [(row, g, w) for g, w in cells if not golden.close(float(g), float(w))]
    return moved


def test_golden_changes_name_each_added_removed_and_moved_row():
    def bundle(*rows):
        return {"checks": [list(row) for row in rows], "tables": {}}

    old = {
        "a": bundle(("kept", "<=", 1e-10, 0.5), ("gone", "<=", 1e-10, 0.0), ("nan", "<=", 1.0, math.nan)),
        "b": bundle(("moved", "within", [0.8, 3.0], 2.0), ("retuned", "<=", 1e-10, 1.0)),
    }
    new = {
        "a": bundle(("kept", "<=", 1e-10, 0.5), ("nan", "<=", 1.0, math.nan), ("new", "<=", 1e-9, 3.0)),
        "b": bundle(("moved", "within", [0.8, 3.0], 2.5), ("retuned", "<=", 1e-9, 1.0)),
    }
    assert golden.changes(old, new) == [
        "removed a gone: 0.0 (<= 1e-10) -> -",
        "added a new: - -> 3.0 (<= 1e-09)",
        "moved b moved: 2.0 (within [0.8, 3.0]) -> 2.5 (within [0.8, 3.0])",
        "moved b retuned: 1.0 (<= 1e-10) -> 1.0 (<= 1e-09)",
    ]
    assert golden.changes(new, new) == []


def test_golden_rewrite_keeps_each_value_within_the_bound():
    def bundle(rows, table):
        return {"checks": [list(row) for row in rows], "tables": {"t.tsv": table}}

    ulp = math.ulp(0.5)
    old = {
        "a": bundle(
            [("rounded", "<=", 1.0, 0.5), ("moved", "<=", 1.0, 0.5), ("gone", "<=", 1.0, 0.5)],
            ["# x\ty", "1\t0.5", "2\t0.5"],
        ),
        "b": bundle([("resized", "<=", 1.0, 0.5)], ["# x", "1"]),
    }
    new = {
        "a": bundle(
            [("rounded", "<=", 1.0, 0.5 + ulp), ("moved", "<=", 1.0, 0.5 + 1e-6), ("new", "<=", 1.0, 0.5)],
            ["# x\tz", f"1\t{0.5 + ulp!r}", f"2\t{0.5 + 1e-6!r}"],
        ),
        "b": bundle([("resized", "<=", 1.0, 0.5 + ulp)], ["# x", "1", f"{1 + ulp!r}"]),
        "c": bundle([("added", "<=", 1.0, 0.5)], ["# x", "1"]),
    }
    written = golden.kept(old, new)
    # a one-ulp move keeps the committed value; a 1e-6 move and a new header are written
    assert written["a"] == bundle(
        [("rounded", "<=", 1.0, 0.5), ("moved", "<=", 1.0, 0.5 + 1e-6), ("new", "<=", 1.0, 0.5)],
        ["# x\tz", "1\t0.5", f"2\t{0.5 + 1e-6!r}"],
    )
    # a table whose length changed is written whole
    assert written["b"]["tables"] == new["b"]["tables"]
    assert written["c"] == new["c"]
    assert golden.changes(old, written) == [
        "removed a gone: 0.5 (<= 1.0) -> -",
        "moved a moved: 0.5 (<= 1.0) -> 0.500001 (<= 1.0)",
        "added a new: - -> 0.5 (<= 1.0)",
        "added c added: - -> 0.5 (<= 1.0)",
    ]


def test_undeformed_limit_is_the_plain_ladders_closed_forms():
    # the q = 1 limit and the boson case check one pair of closed forms on one problem
    assert config.load_bundled("quon-closed-forms").dim == config.load_bundled("boson-example2").dim
    quon = {c.name: c.value for c in shipped_run("quon-closed-forms")[0].checks}
    boson = {c.name: c.value for c in shipped_run("boson-example2")[0].checks}
    limit = quon["undeformed-limit-matches-plain-ladder"]
    assert limit > 0.0
    assert limit == max(boson["n1-closed-form"], boson["companion-closed-form"])


def test_every_shipped_bundle_has_golden_values():
    assert sorted(golden.load()) == config.bundled_names()


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_bundle_matches_its_golden_values(bundle):
    got, want = golden.record(*shipped_run(bundle)), golden.load()[bundle]
    assert [row[:3] for row in got["checks"]] == [row[:3] for row in want["checks"]]
    moved = [(g[0], g[3], w[3]) for g, w in zip(got["checks"], want["checks"]) if not golden.close(g[3], w[3])]
    assert moved == []
    assert sorted(got["tables"]) == sorted(want["tables"])
    for name, lines in want["tables"].items():
        assert moved_cells(got["tables"][name], lines) == [], name


#: the keys of a check record; ``perfbench/run.py`` (``CHECK_KEYS``) marks a
#: report whose records lack one of them incorrect
RECORD_KEYS = {"name", "anchor", "value", "tolerance", "comparator", "passed"}


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_report_records_keep_their_keys(bundle):
    report, _ = shipped_run(bundle)
    assert [set(check) for check in report.to_dict()["checks"]] == [RECORD_KEYS] * len(report.checks)
    written = json.loads(report.to_json())["checks"]
    summary = report.summary_text().splitlines()
    for check, row in zip(written, golden.load()[bundle]["checks"], strict=True):
        if check["comparator"] == "within":
            # a window reads back as the list [low, high]
            assert isinstance(check["tolerance"], list) and len(check["tolerance"]) == 2
        assert [check["name"], check["comparator"], check["tolerance"]] == row[:3]
        # the summary shows each bound as the report writes it
        line = next(line for line in summary if line.startswith(check["name"] + " "))
        assert f"{check['comparator']} {json.dumps(check['tolerance'])} " in line, line
        assert line.endswith("pass" if check["passed"] else "FAIL")


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_bundle_passes_with_its_checks(bundle):
    report, _ = shipped_run(bundle)
    assert [c.name for c in report.checks] == SHIPPED_CHECKS[bundle]
    failed = [(c.name, c.value, c.tolerance) for c in report.checks if not c.passed]
    assert failed == []
    assert report.overall_pass
