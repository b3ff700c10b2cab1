"""Negative controls: a defect injected through a config or the public API
must turn a named check to fail, so the check is shown able to fail.

Each control also shows the verdict comes from the report's check, with the
config's tolerance, not from a threshold inside the library.
"""

import json
import math
from importlib import resources

import pytest
import yaml

from vcslab import cli, config, moments, spectra, vcs


def bundled(name):
    return yaml.safe_load((resources.files("vcslab") / "configs" / f"{name}.yaml").read_text())


def short_truncation_vcs(tmp_path, **tolerances):
    """``vcs-eds-properties`` at dim 30 with intensities to 12 and no witness:
    the truncation loses up to 8.8e-6 of a state's mass."""
    raw = bundled("vcs-eds-properties")
    raw["dim"] = 30
    raw["params"]["j_max"] = [12.0, 12.0]
    del raw["params"]["witness"]
    if tolerances:
        raw["tolerances"] = tolerances
    path = tmp_path / "short-truncation.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def run_cli(path, out):
    code = cli.main(["run", str(path), "--out", str(out)])
    report = json.loads((out / f"{path.stem}.report.json").read_text())
    return code, {c["name"]: c for c in report["checks"]}


def test_tail_bound_breach_fails_the_report(tmp_path):
    code, checks = run_cli(short_truncation_vcs(tmp_path), tmp_path / "out")
    assert code == 1
    tail = checks["truncation-tail-bound"]
    assert tail["tolerance"] == 1e-10
    assert not tail["passed"]
    assert 1e-6 < tail["value"] < 1e-4


def test_tail_override_decides_the_check(tmp_path):
    _, checks = run_cli(short_truncation_vcs(tmp_path, tail=1e-3), tmp_path / "out")
    tail = checks["truncation-tail-bound"]
    assert tail["tolerance"] == 1e-3
    assert tail["passed"]


def test_wrong_weight_scale_fails_moment_verification():
    # weight scale 2 against spectra spaced 1 and sqrt(2)
    seqs = [
        spectra.linear_sequence(16, 1.0, offset=0.3),
        spectra.linear_sequence(16, math.sqrt(2.0), offset=math.sqrt(2.0) / 2),
    ]
    weights = [moments.MomentWeight.gamma_family(2.0)] * 2
    assembly = moments.resolution_assembly(vcs.coherent_family("eds", seqs), weights)
    tol = config.ResolutionParams.TOLERANCES
    assert min(assembly.moment_errors) > tol["moment"]
    assert assembly.diag_error > tol["diagonal"]


def edited(name, spectra=None, **params):
    """Bundle ``name`` with its spectra replaced and its params updated."""
    raw = bundled(name)
    if spectra is not None:
        raw["spectra"] = spectra
    raw["params"].update(params)
    return raw


LINEAR_OFFSETS = [{"form": "linear", "offset": 0.5}, {"form": "linear", "offset": 0.7}]
ZERO_GROUND_PAIR = [{"form": "linear"}, {"form": "linear", "omega": math.sqrt(2.0), "offset": 0.7}]
COLLIDING = [{"form": "linear", "offset": 0.3}, {"form": "linear", "offset": 0.3}]
QUON_ZERO_GROUND = [{"form": "quon", "q": 0.5}, {"form": "quon", "q": 0.7}]

# (case, config, the key the config error names): each spectrum set is one
# that vcs.coherent_family rejects
REGIME_CONTROLS = [
    ("resolution-delta-nonzero-grounds", edited("resolution-delta", LINEAR_OFFSETS), "spectra[0]"),
    ("resolution-delta-negative-delta", edited("resolution-delta", delta=-0.5), "params.delta"),
    ("resolution-eds-zero-ground", edited("resolution-eds", ZERO_GROUND_PAIR), "spectra[0]"),
    ("vcs-delta-zero-delta", edited("vcs-delta-properties", delta=0.0), "params.delta"),
    ("vcs-delta-nonzero-grounds", edited("vcs-delta-properties", LINEAR_OFFSETS), "spectra[0]"),
    ("vcs-eds-zero-ground", edited("vcs-eds-properties", ZERO_GROUND_PAIR), "spectra[0]"),
    ("vcs-eds-colliding", edited("vcs-eds-properties", COLLIDING), "spectra[0] and spectra[1]"),
    (
        "vcs-witness-zero-ground",
        edited("vcs-eds-properties", witness={"spectra": QUON_ZERO_GROUND, "dim": 50}),
        "params.witness.spectra[0]",
    ),
]


@pytest.mark.parametrize("raw, key", [c[1:] for c in REGIME_CONTROLS], ids=[c[0] for c in REGIME_CONTROLS])
def test_family_regime_is_checked_at_parse_time(raw, key, tmp_path, capsys):
    path = tmp_path / "regime.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert key in err
    assert not (tmp_path / "out").exists()


# (case, config, the exponent's window): the regulator dichotomy read both
# ways, so the decay exponent is shown able to fail from either side of its window
DECAY_CONTROLS = [
    # regulated, the off-diagonal error decays like 1/horizon: about 1.11
    ("zero-regulator-bundle-regulated", edited("delta-zero-failure", delta=0.5), [-0.2, 0.2]),
    # unregulated, the ground-ground cross entry stays exactly 1: exactly 0
    ("regulated-bundle-unregulated", edited("resolution-delta", delta=0.0), [0.8, 1.2]),
]


@pytest.mark.parametrize("raw, window", [c[1:] for c in DECAY_CONTROLS], ids=[c[0] for c in DECAY_CONTROLS])
def test_regulator_flip_fails_the_decay_exponent(raw, window, tmp_path):
    path = tmp_path / "flipped.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, checks = run_cli(path, tmp_path / "out")
    assert code == 1
    exponent = checks["offdiagonal-decay-exponent"]
    assert exponent["tolerance"] == window
    assert not exponent["passed"]
    expected = 0.0 if raw["params"]["delta"] == 0.0 else pytest.approx(1.11, abs=0.01)
    assert exponent["value"] == expected
    # the moments and the diagonal are the same at every regulator
    assert checks["moment-verification"]["passed"] and checks["diagonal-residual"]["passed"]
