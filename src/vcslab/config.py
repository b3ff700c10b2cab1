"""Experiment configuration: YAML schema, validation, bundled inventory.

Configs are strict: unknown keys anywhere are hard errors, so a typo cannot
silently disable a check.  Tolerances follow the library defaults unless
overridden.  A bundled inventory of ready-to-run configs ships inside the
package (``vcslab list`` prints it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "bundled_names",
    "load_bundled",
    "KINDS",
]

# What the ceilings cost, measured one run per process with one BLAS thread
# (2-vCPU Xeon, Python 3.11, numpy 2.4): at dim 4096 each companion,
# nonisospectral and map-equality bundle runs in 0.01-0.05 s within 38 MiB
# peak RSS, and each vcs-verify bundle (100 samples) in about 0.45 s within
# 39 MiB.  The grid stays dense: sizes [2048, 4096] take about 38 s and
# 819 MiB.  The resolution kind cannot verify its weight moments from dim
# 160 on: they overflow the float range.
DIM_RANGE = (8, 4096)
GRID_RANGE = (64, 4096)

_SPECTRUM_KEYS = {"form", "omega", "offset", "q", "values", "scale", "dim"}

_TOP_KEYS = {"kind", "title", "anchor", "dim", "seed", "spectra", "params", "tolerances", "output"}

# per-kind allowed parameter keys and tolerance defaults
KINDS = {
    "vcs-verify": {
        "params": {
            "family", "n_samples", "j_max", "gamma_max", "delta", "times", "witness",
        },
        "tolerances": {
            "tail": 1e-10,
            "action": 1e-9,
            "stability": 1e-9,
            "eigenstate": 1e-9,
            "witness_min": 1e-2,
        },
    },
    "resolution": {
        "params": {"family", "delta", "horizons", "n_nodes", "k_check", "delta_probe"},
        "tolerances": {
            "moment": 1e-8,
            "diagonal": 1e-7,
            "hermiticity": 1e-12,
            "decay_low": 0.8,
            "decay_high": 1.2,
            "entry_floor": 0.1,
            "entry_drift": 0.05,
            "decay_factor_low": 50.0,
            "decay_factor_high": 200.0,
        },
    },
    "intertwine-example": {
        "params": {"example", "gammas"},
        "tolerances": {
            "alpha": 1e-10,
            "beta": 1e-10,
            "gamma": 1e-9,
            "gamma_independence": 1e-12,
            "h_tau": 1e-14,
        },
    },
    "nonisospectral": {
        "params": {"case", "q_values"},
        "tolerances": {"closed_form": 1e-11},
    },
    "map-equality-probe": {
        "params": {"cases", "q", "l_max"},
        "tolerances": {"probe": 1e-10, "order": 1e-10, "commutant": 1e-10},
    },
    "susy-grid": {
        "params": {"w_coeffs", "domain", "sizes", "n_modes", "map_coeffs", "hbar", "mass"},
        "tolerances": {
            "exponent_low": 1.7,
            "exponent_high": 2.3,
            "commutator": 1e-3,
        },
    },
}

_WITNESS_KEYS = {"spectra", "dim", "j", "gamma", "gamma_offset"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    title: str
    anchor: str
    dim: int | None
    seed: int
    spectra: tuple
    params: dict
    tolerances: dict
    output: str | None = None
    source: str | None = field(default=None, compare=False)

    def echo(self) -> dict:
        """Config as a plain mapping, for embedding in reports."""
        return {
            "kind": self.kind,
            "title": self.title,
            "anchor": self.anchor,
            "dim": self.dim,
            "seed": self.seed,
            "spectra": [dict(s) for s in self.spectra],
            "params": dict(self.params),
            "tolerances": dict(self.tolerances),
        }


def _reject_unknown(mapping, allowed, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _validate_spectrum(entry, where: str) -> dict:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(entry).__name__}")
    _reject_unknown(entry, _SPECTRUM_KEYS, where)
    if "form" not in entry:
        raise ConfigError(f"{where} needs a 'form' key")
    form = entry["form"]
    if form not in ("linear", "quon", "values"):
        raise ConfigError(f"{where}: unknown spectrum form {form!r}")
    if form == "quon" and "q" not in entry:
        raise ConfigError(f"{where}: quon spectrum needs 'q'")
    if form == "values" and "values" not in entry:
        raise ConfigError(f"{where}: explicit spectrum needs 'values'")
    return dict(entry)


def parse_config(raw: dict, source: str | None = None) -> ExperimentConfig:
    """Validate a raw mapping into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "config")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; pick one of {sorted(KINDS)}")
    schema = KINDS[kind]

    dim = raw.get("dim")
    if kind != "susy-grid":
        if not isinstance(dim, int):
            raise ConfigError(f"'dim' must be an integer, got {dim!r}")
        if not (DIM_RANGE[0] <= dim <= DIM_RANGE[1]):
            raise ConfigError(f"dim {dim} outside allowed range {DIM_RANGE}")
    elif dim is not None:
        raise ConfigError("susy-grid configs size the grid via params.sizes, not dim")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a mapping")
    _reject_unknown(params, schema["params"], f"params of kind {kind}")
    for key in ("horizons", "sizes", "times", "gammas", "j_max", "q_values", "cases"):
        if key in params and not params[key]:
            raise ConfigError(f"params.{key} must be a non-empty list")

    tolerances = dict(schema["tolerances"])
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be a mapping")
    _reject_unknown(overrides, set(tolerances), f"tolerances of kind {kind}")
    for key, value in overrides.items():
        if not (isinstance(value, (int, float)) and value > 0):
            raise ConfigError(f"tolerance {key} must be positive, got {value!r}")
        tolerances[key] = float(value)

    spectra = tuple(
        _validate_spectrum(entry, f"spectra[{i}]")
        for i, entry in enumerate(raw.get("spectra", []))
    )
    if kind in ("vcs-verify", "resolution") and len(spectra) < 1:
        raise ConfigError(f"kind {kind} needs spectra")
    if kind == "intertwine-example" and len(spectra) != 2:
        raise ConfigError("intertwine-example needs exactly two spectra")

    if kind == "vcs-verify" and "witness" in params:
        witness = params["witness"]
        if not isinstance(witness, dict):
            raise ConfigError("params.witness must be a mapping")
        _reject_unknown(witness, _WITNESS_KEYS, "params.witness")
        if not witness.get("spectra"):
            raise ConfigError("params.witness needs spectra")
        for i, entry in enumerate(witness["spectra"]):
            _validate_spectrum(entry, f"params.witness.spectra[{i}]")

    if kind == "susy-grid":
        sizes = params.get("sizes", [])
        if not sizes:
            raise ConfigError("susy-grid needs params.sizes")
        for n in sizes:
            if not (isinstance(n, int) and GRID_RANGE[0] <= n <= GRID_RANGE[1]):
                raise ConfigError(f"grid size {n!r} outside allowed range {GRID_RANGE}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed!r}")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a string path")

    return ExperimentConfig(
        kind=kind,
        title=str(raw.get("title", kind)),
        anchor=str(raw.get("anchor", kind)),
        dim=dim,
        seed=seed,
        spectra=spectra,
        params=dict(params),
        tolerances=tolerances,
        output=output,
        source=source,
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return parse_config(raw, source=str(path))


def _bundled_root():
    return resources.files("vcslab") / "configs"


def bundled_names() -> list:
    """Names of the shipped experiment configs (sorted)."""
    return sorted(p.name[: -len(".yaml")] for p in _bundled_root().iterdir() if p.name.endswith(".yaml"))


def load_bundled(name: str) -> ExperimentConfig:
    entry = _bundled_root() / f"{name}.yaml"
    try:
        text = entry.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(
            f"no bundled config named {name!r}; available: {', '.join(bundled_names())}"
        ) from exc
    return parse_config(yaml.safe_load(text), source=f"bundled:{name}")
