"""Every shipped bundle, run as shipped: it passes, with exactly its checks,
and every check value and table matches the golden file.

The acceptance tests call the library directly; this is the one tier-1 test
that runs each bundled config through ``run_experiment``, so a fault in a
runner (a sign, a worst-case reduction, a dropped check) fails here, and so
does a value that moves.  A RuntimeWarning (an overflow, say) fails too.
Each bundle runs once per session; both tests read that run.
"""

import functools
import math

import golden
import pytest

from vcslab import config
from vcslab.experiments import run_experiment

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: how far a value may move, relative to its golden value.  Rounding on
#: another BLAS or LAPACK build moves the grid values by far less; the 1.5e-4
#: relative move of a change of eigenbasis trips it.  A zero stays exactly zero.
REL_BOUND = 1e-9

_COMPANION = [
    "hermiticity[alpha]",
    "weak-intertwining[beta]",
    "eigenvalue-transport[gamma]",
    "phase-independence",
    "shifted-hamiltonian-factorization",
]
_RESOLUTION = [
    "moment-verification",
    "diagonal-residual",
    "assembly-hermiticity",
    "offdiagonal-decay-exponent",
    "offdiagonal-decay-exponent-ceiling",
]
_GRID = [
    "commutator-residual-finest",
    "commutator-scaling-exponent",
    "commutator-scaling-exponent-ceiling",
    "partner-comparison-scaling-exponent",
    "partner-comparison-scaling-exponent-ceiling",
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
        "certificate-alpha",
        "certificate-beta",
        "certificate-gamma",
    ],
    "delta-zero-failure": [
        "cross-entry-magnitude",
        "cross-entry-horizon-drift",
        "regulated-entry-decay-factor",
        "regulated-entry-decay-factor-ceiling",
    ],
    "example1-susy-qm": _COMPANION,
    "example2-squared-intertwiner": _COMPANION,
    "example3-cubed-intertwiner": _COMPANION,
    "example4-ladder-product": _COMPANION,
    "map-equality-probes": [
        f"{check}[{case}]"
        for case in ("boson", "quon", "invertible")
        for check in (
            "map-equality-residual",
            "projection-identity-residual",
            "projector-commutant-residual",
            "range-deficiency-matches",
        )
    ],
    "quon-closed-forms": [
        *(f"{form}-closed-form[q={q}]" for q in (0.3, 0.5, 0.9) for form in ("n1", "companion")),
        "undeformed-limit-matches-plain-ladder",
    ],
    "resolution-delta": _RESOLUTION,
    "resolution-eds": _RESOLUTION,
    "susy-grid-anharmonic": _GRID,
    "susy-grid-linear": _GRID,
    "vcs-delta-properties": _VCS,
    "vcs-eds-properties": [*_VCS, "mismatched-phase-eigenstate-residual"],
}


def test_every_shipped_bundle_is_listed():
    assert sorted(SHIPPED_CHECKS) == config.bundled_names()


@functools.cache
def shipped_run(bundle):
    return run_experiment(config.load_bundled(bundle))


def close(got: float, want: float) -> bool:
    """``got`` within ``REL_BOUND`` of ``want``; a NaN or an inf matches only itself."""
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= REL_BOUND * abs(want)


def moved_cells(got_lines, want_lines) -> list:
    """The cells of a table that differ: headers exactly, numbers beyond ``REL_BOUND``."""
    assert len(got_lines) == len(want_lines)
    moved = []
    for row, (got, want) in enumerate(zip(got_lines, want_lines)):
        if want.startswith("#"):
            if got != want:
                moved.append((row, got, want))
            continue
        cells = list(zip(got.split("\t"), want.split("\t"), strict=True))
        moved += [(row, g, w) for g, w in cells if not close(float(g), float(w))]
    return moved


def test_every_shipped_bundle_has_golden_values():
    assert sorted(golden.load()) == config.bundled_names()


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_bundle_matches_its_golden_values(bundle):
    got, want = golden.record(*shipped_run(bundle)), golden.load()[bundle]
    assert [row[:3] for row in got["checks"]] == [row[:3] for row in want["checks"]]
    moved = [(g[0], g[3], w[3]) for g, w in zip(got["checks"], want["checks"]) if not close(g[3], w[3])]
    assert moved == []
    assert sorted(got["tables"]) == sorted(want["tables"])
    for name, lines in want["tables"].items():
        assert moved_cells(got["tables"][name], lines) == [], name


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_bundle_passes_with_its_checks(bundle):
    report, _ = shipped_run(bundle)
    assert [c.name for c in report.checks] == SHIPPED_CHECKS[bundle]
    failed = [(c.name, c.value, c.tolerance) for c in report.checks if not c.passed]
    assert failed == []
    assert report.overall_pass
