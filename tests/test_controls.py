"""Negative controls: a defect injected through a config or the public API
must turn a named check to fail, so the check is shown able to fail.

Each control also shows the verdict comes from the report's check, with the
config's tolerance, not from a threshold inside the library.
"""

import json
import math
from importlib import resources

import yaml

from vcslab import cli, config, moments, spectra


def short_truncation_vcs(tmp_path, **tolerances):
    """``vcs-eds-properties`` at dim 30 with intensities to 12 and no witness:
    the truncation loses up to 8.8e-6 of a state's mass."""
    raw = yaml.safe_load((resources.files("vcslab") / "configs" / "vcs-eds-properties.yaml").read_text())
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
    report = moments.resolution_check("eds", seqs, weights)
    tol = config.ResolutionParams.TOLERANCES
    assert min(report.moment_errors) > tol["moment"]
    assert report.diag_error > tol["diagonal"]
