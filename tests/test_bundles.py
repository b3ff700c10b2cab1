"""Every shipped bundle, run as shipped: it passes, with exactly its checks.

The acceptance tests call the library directly; this is the one tier-1 test
that runs each bundled config through ``run_experiment``, so a fault in a
runner (a sign, a worst-case reduction, a dropped check) fails here.
"""

import pytest

from vcslab import config
from vcslab.experiments import run_experiment

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


@pytest.mark.parametrize("bundle", sorted(SHIPPED_CHECKS))
def test_shipped_bundle_passes_with_its_checks(bundle):
    report, _ = run_experiment(config.load_bundled(bundle))
    assert [c.name for c in report.checks] == SHIPPED_CHECKS[bundle]
    failed = [(c.name, c.value, c.tolerance) for c in report.checks if not c.passed]
    assert failed == []
    assert report.overall_pass
