"""Experiment configuration: YAML schema, validation, bundled inventory.

Configs are strict: unknown keys anywhere are hard errors, so a typo cannot
silently disable a check.  Each kind's parameters are one frozen dataclass
(``KINDS``) whose field types drive one checker, so a malformed value fails
at parse time naming its key (``params.times[0]``); a ``resolve`` method
checks what needs the spectra or ``dim``.  Beside its ``TOLERANCES`` each
kind declares its ``CHECKS``: for every check it reports, keyed by the base
name (the name up to any ``[...]``), the anchor, the tolerance and the
comparator: ``<=`` one tolerance (a ``TOLERANCES`` key, or a fixed number
that no config sets), or ``within`` the window of two keys, low then high.
``LABELS`` formats the check label of each entry of a list
(:func:`check_labels`), which must not repeat.  Spectra are built here, and
so is each coherent family, once, while its spectra are checked.  A bundled
inventory of ready-to-run configs ships inside the package (``vcslab list``
prints it).
"""

from __future__ import annotations

import functools
import math
import sys
import types
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .errors import ConfigError, VcsLabError
from .spectra import SpectralSequence, linear_sequence, make_sequence, quon_sequence
from .vcs import CoherentFamily, coherent_family

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "bundled_names",
    "load_bundled",
    "check_labels",
    "KINDS",
]

# What the ceilings cost: the median of three runs of each bundle, one
# process per bundle, one BLAS thread (2-vCPU Xeon, Python 3.11, numpy 2.4),
# each process within 39 MiB peak RSS unless stated.  At dim 4096 each
# companion, quon nonisospectral and map-equality bundle runs in 0.002-0.007 s
# (the boson case stops at BOSON_EXP_DIM_MAX), each vcs-verify bundle (100
# samples, one draw per block) in 0.14-0.25 s (median of seven, over six
# rounds on a shared machine, whose load sets the spread), and each
# resolution bundle in 0.005 s.  The grid comparison forms no n x n array:
# each susy-grid bundle at sizes [2048, 4096] runs in 0.05-0.07 s within
# 67 MiB.  Verdicts at these sizes are another matter: rounding alone fails
# some companion checks from dim 150 on.
DIM_RANGE = (8, 4096)
GRID_RANGE = (64, 4096)


def _boson_exp_dim_max() -> int:
    """The largest ``dim`` at which the boson case of ``nonisospectral`` stays
    in the float range.  Its largest product is its exponential-map
    companion's ``x+ f(h) x`` at the top of the window, ``exp(e) e (e - 1)``
    with ``e = dim - 1`` the top eigenvalue of ``h = a+ a``."""
    dim = int(math.log(sys.float_info.max)) + 1
    while not math.isfinite(math.exp(dim - 1) * (dim - 1) * (dim - 2)):
        dim -= 1
    return dim


BOSON_EXP_DIM_MAX = _boson_exp_dim_max()

# numbers annotated with their inclusive (low, high) bounds; ``ulp(0)`` stands for > 0
Dim = Annotated[int, DIM_RANGE]
NonNegative = Annotated[float, (0.0, math.inf)]
Positive = Annotated[float, (math.ulp(0.0), math.inf)]
Deformation = Annotated[float, (math.ulp(0.0), 1.0)]

_TOP_KEYS = {"kind", "title", "anchor", "dim", "seed", "spectra", "params", "tolerances", "output"}


@dataclass(frozen=True)
class Spectrum:
    """One ``spectra`` entry: a closed form at the enclosing ``dim``, or one value per level."""

    form: Literal["linear", "quon", "values"]
    omega: float = 1.0
    offset: float = 0.0
    q: float | None = None
    values: tuple[float, ...] | None = None


#: the keys of a ``spectra`` entry that each form does not read
_UNREAD_SPECTRUM_KEYS = {
    "linear": ("q", "values"),
    "quon": ("values",),
    "values": ("omega", "offset", "q"),
}


def _family(family, spectra, delta) -> CoherentFamily:
    """:func:`vcslab.vcs.coherent_family`, with a ConfigError naming the key at fault."""
    try:
        return coherent_family(family, spectra, delta, "spectra", "params.delta")
    except VcsLabError as exc:
        raise ConfigError(str(exc)) from exc


def _distinct(values, key):
    """Two or more entries, none repeated: the points of a power-law fit, or
    the members a comparison across members needs."""
    if len(set(values)) < max(2, len(values)):
        raise ConfigError(f"{key} needs two or more distinct entries")


@dataclass(frozen=True)
class VcsVerifyParams:
    """``j_max`` (4.0 per spectrum) is at most each spectrum's top shifted
    level.  ``lowering_phase_offset`` is added to each draw's gamma where its
    lowering operator is built, and only there: at a nonzero offset each
    state meets the lowering operator of another member, of which it is not
    an eigenstate, and the window ``eigenstate_low``..``eigenstate`` can
    require the large residual of that mismatch."""

    TOLERANCES = {
        "tail": 1e-10,
        "action": 1e-9,
        "stability": 1e-9,
        "eigenstate_low": 0.0,
        "eigenstate": 1e-9,
    }
    CHECKS = {
        "truncation-tail-bound": ("state-normalization", "tail", "<="),
        "action-identity-residual": ("action-identity", "action", "<="),
        "annihilation-eigenstate-residual": ("annihilation-eigenstate", ("eigenstate_low", "eigenstate"), "within"),
        "temporal-stability-residual": ("temporal-stability", "stability", "<="),
    }
    LABELS = {"times": "t={:g}"}

    family: Literal["eds", "delta"] = "eds"
    n_samples: Annotated[int, (1, math.inf)] = 100
    j_max: tuple[NonNegative, ...] | None = None
    gamma_max: NonNegative = 3.0
    delta: float = 0.5
    times: tuple[float, ...] = (0.1, 1.0, 10.0)
    lowering_phase_offset: float = 0.0

    def resolve(self, dim, spectra):
        j_max = (4.0,) * len(spectra) if self.j_max is None else self.j_max
        if len(j_max) != len(spectra):
            raise ConfigError(f"params.j_max has {len(j_max)} entries for {len(spectra)} spectra")
        for i, (j, seq) in enumerate(zip(j_max, spectra)):
            # above it no geometric tail bound exists
            if j > (top := seq.values[-1] - seq.values[0]):
                raise ConfigError(f"params.j_max[{i}] {j} exceeds spectra[{i}]'s top shifted level {top:g}")
        return replace(self, j_max=j_max)

    def coherent_family(self, spectra) -> CoherentFamily:
        return _family(self.family, spectra, self.delta)


@dataclass(frozen=True)
class ResolutionParams:
    """The check covers every level of every sector.  ``family: delta`` at
    ``delta: 0`` builds the unregulated family, which does not resolve the
    identity: its off-diagonal error is exactly 1 at every horizon.  The
    moments are closed forms, so ``n_nodes`` is not read; it is still
    accepted, since perfbench's scaled resolution items set it."""

    TOLERANCES = {
        "moment": 1e-8,
        "decay_low": 0.8,
        "decay_high": 1.2,
    }
    CHECKS = {
        "moment-verification": ("moment-weights", "moment", "<="),
        "offdiagonal-decay-exponent": ("resolution-of-identity", ("decay_low", "decay_high"), "within"),
    }

    family: Literal["eds", "delta"] = "eds"
    delta: float = 0.0
    horizons: tuple[Positive, ...] = (1e2, 1e3, 1e4)
    n_nodes: Annotated[int, (1, math.inf)] = 40

    def resolve(self, dim, spectra):
        for i, seq in enumerate(spectra):
            gaps = np.diff(seq.values)
            if not np.allclose(gaps, gaps[0], rtol=1e-12, atol=0.0):
                raise ConfigError(f"spectra[{i}] is not equally spaced: no closed-form weight")
        _distinct(self.horizons, "params.horizons")
        return self

    def coherent_family(self, spectra) -> CoherentFamily:
        # a zero regulator is the one the delta family does not check
        return _family(self.family, spectra, self.delta or None)


# the companion certificate's tolerances: intertwine-example defaults, and fixed for the
# beta and gamma of nonisospectral (whose real diagonal companions have no alpha to report)
ALPHA_TOL = 1e-10
BETA_TOL = 1e-10
GAMMA_TOL = 1e-9


@dataclass(frozen=True)
class IntertwineExampleParams:
    TOLERANCES = {
        "alpha": ALPHA_TOL,
        "beta": BETA_TOL,
        "gamma": GAMMA_TOL,
        "gamma_independence": 1e-12,
        "h_tau": 1e-14,
    }
    CHECKS = {
        "hermiticity": ("companion-certificate", "alpha", "<="),
        "weak-intertwining": ("companion-certificate", "beta", "<="),
        "eigenvalue-transport": ("companion-certificate", "gamma", "<="),
        "phase-independence": ("companion-certificate", "gamma_independence", "<="),
        "shifted-hamiltonian-factorization": ("ladder-factorization", "h_tau", "<="),
    }

    example: Literal[1, 2, 3, 4] = 1
    gammas: tuple[float, ...] = (0.0, 0.7, 3.1)

    def resolve(self, dim, spectra):
        # phase-independence compares the members: one gamma compares nothing
        _distinct(self.gammas, "params.gammas")
        return self


@dataclass(frozen=True)
class NonisospectralParams:
    TOLERANCES = {"closed_form": 1e-11}
    # the certificates are judged against the construction's own fixed tolerances
    CHECKS = {
        "n1-closed-form": ("ladder-closed-forms", "closed_form", "<="),
        "companion-closed-form": ("ladder-closed-forms", "closed_form", "<="),
        "squared-map-closed-form": ("spectrum-mapped-companion", "closed_form", "<="),
        "exponential-map-closed-form": ("spectrum-mapped-companion", "closed_form", "<="),
        "certificate-beta": ("companion-certificate", BETA_TOL, "<="),
        "certificate-gamma": ("companion-certificate", GAMMA_TOL, "<="),
        "undeformed-limit-matches-plain-ladder": ("ladder-closed-forms", "closed_form", "<="),
    }
    LABELS = {"q_values": "q={:g}"}

    case: Literal["boson", "quon"] = "boson"
    q_values: tuple[Deformation, ...] = (0.3, 0.5, 0.9)

    def resolve(self, dim, spectra):
        if self.case == "boson" and dim > BOSON_EXP_DIM_MAX:
            raise ConfigError(
                f"dim {dim} exceeds {BOSON_EXP_DIM_MAX}, the largest at which the boson case's "
                "exponential-map companion stays in the float range"
            )
        return self


@dataclass(frozen=True)
class MapEqualityProbeParams:
    TOLERANCES = {"probe": 1e-10}
    CHECKS = {"map-equality-residual": ("power-series-equality", "probe", "<=")}
    LABELS = {"cases": "{}"}

    cases: tuple[Literal["boson", "quon", "invertible"], ...] = ("boson", "quon", "invertible")
    q: Deformation = 0.5


@dataclass(frozen=True)
class SusyGridParams:
    """Polynomial coefficients lowest order first; ``map_coeffs`` defaults to the identity map.
    The ladder is ``a = d/dx / sqrt(2) + W``, in units where hbar = m = 1:
    other units are the rescaling ``x = kappa y``, ``kappa = hbar / sqrt(m)``,
    of ``domain`` and ``w_coeffs``."""

    TOLERANCES = {
        "exponent_low": 1.7,
        "exponent_high": 2.3,
        "commutator": 1e-3,
    }
    CHECKS = {
        "commutator-residual-finest": ("grid-discretization", "commutator", "<="),
        "commutator-scaling-exponent": ("grid-discretization", ("exponent_low", "exponent_high"), "within"),
        "partner-comparison-scaling-exponent": ("grid-discretization", ("exponent_low", "exponent_high"), "within"),
    }

    sizes: tuple[Annotated[int, GRID_RANGE], ...]
    w_coeffs: tuple[float, ...] = (0.0, 1.0)
    domain: tuple[float, float] = (-12.0, 12.0)
    n_modes: Annotated[int, (1, math.inf)] = 32
    map_coeffs: tuple[float, ...] = (0.0, 1.0)

    def resolve(self, dim, spectra):
        _distinct(self.sizes, "params.sizes")
        if not self.domain[0] < self.domain[1]:
            raise ConfigError(f"params.domain {list(self.domain)} must be increasing")
        # N1 on the n - 1 bonds of the smallest grid has that many modes
        if self.n_modes > (modes := min(self.sizes) - 1):
            raise ConfigError(f"params.n_modes {self.n_modes} exceeds the {modes} modes of the smallest grid")
        return self


KINDS = {
    "vcs-verify": VcsVerifyParams,
    "resolution": ResolutionParams,
    "intertwine-example": IntertwineExampleParams,
    "nonisospectral": NonisospectralParams,
    "map-equality-probe": MapEqualityProbeParams,
    "susy-grid": SusyGridParams,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    title: str
    anchor: str
    dim: int | None
    seed: int
    spectra: tuple
    params: object
    tolerances: dict
    #: the ``spectra`` and ``params`` mappings as written, for :meth:`echo`
    as_written: dict = field(compare=False, repr=False)
    output: str | None = None
    source: str | None = field(default=None, compare=False)
    #: the coherent family of a ``vcs-verify`` or ``resolution`` config
    family: CoherentFamily | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if any(seq.dim != self.dim for seq in self.spectra):
            raise ConfigError(f"spectra not built at dim {self.dim}: parse the config again")
        # built from this config's own spectra and params, so ``replace`` builds afresh
        if hasattr(self.params, "coherent_family"):
            object.__setattr__(self, "family", self.params.coherent_family(self.spectra))

    def echo(self) -> dict:
        """Config as a plain mapping, for embedding in reports."""
        return {
            "kind": self.kind,
            "title": self.title,
            "anchor": self.anchor,
            "dim": self.dim,
            "seed": self.seed,
            "spectra": [dict(s) for s in self.as_written["spectra"]],
            "params": dict(self.as_written["params"]),
            "tolerances": dict(self.tolerances),
        }


def check_labels(params, key) -> list:
    """The check label of each entry of ``params.<key>``, as its kind's ``LABELS`` formats it."""
    return [type(params).LABELS[key].format(v) for v in getattr(params, key)]


def _reject_unknown(mapping, allowed, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (type, required) of a schema dataclass, resolved once;
    the built fields are not keys."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: (hints[f.name], f.default is MISSING) for f in fields(cls) if f.init}


def _build(cls, mapping, where: str, dim: int | None):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(mapping).__name__}")
    schema = _schema(cls)
    _reject_unknown(mapping, set(schema), where)
    values = {}
    for name, (tp, required) in schema.items():
        if name in mapping:
            values[name] = _check(mapping[name], tp, f"{where}.{name}", dim)
        elif required:
            raise ConfigError(f"{where}.{name} is required")
    return cls(**values)


def _check(value, tp, where: str, dim: int | None = None):
    """``value`` as an instance of the field type ``tp``, or a ConfigError naming ``where``."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is SpectralSequence:
        return _spectrum(value, where, dim)
    if origin in (Union, types.UnionType):  # ``X | None``
        return None if value is None else _check(value, args[0], where, dim)
    if origin is Annotated:
        checked = _check(value, args[0], where, dim)
        low, high = args[1]
        if not low <= checked <= high:
            shown = f"(0, {high}]" if low == math.ulp(0.0) else f"[{low}, {high}]"
            raise ConfigError(f"{where} {checked} outside allowed range {shown}")
        return checked
    if origin is Literal:
        if not any(value == a and type(value) is type(a) for a in args):
            raise ConfigError(f"{where} must be one of {list(args)}, got {value!r}")
        return value
    if origin is tuple:
        count = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, list) or not value or len(value) != (count or len(value)):
            raise ConfigError(f"{where} must be a list of {count or 'one or more'}, got {value!r}")
        return tuple(
            _check(v, args[i] if count else args[0], f"{where}[{i}]", dim) for i, v in enumerate(value)
        )
    if tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    # float: YAML numbers, and numeric strings, since PyYAML reads ``1e2`` as one
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _spectrum(entry, where: str, dim: int) -> SpectralSequence:
    spec = _build(Spectrum, entry, where, dim)
    for key in _UNREAD_SPECTRUM_KEYS[spec.form]:
        if key in entry:
            raise ConfigError(f"{where}.{key} is not read by a {spec.form} spectrum")
    needed = {"quon": "q", "values": "values"}.get(spec.form)
    if needed and getattr(spec, needed) is None:
        raise ConfigError(f"{where}.{needed} is required for a {spec.form} spectrum")
    if spec.form == "values" and len(spec.values) != dim:
        raise ConfigError(f"{where}.values has {len(spec.values)} entries, not dim {dim}")
    try:
        if spec.form == "values":
            return make_sequence(spec.values)
        if spec.form == "quon":
            return quon_sequence(dim, spec.q, spec.omega, spec.offset)
        return linear_sequence(dim, spec.omega, spec.offset)
    except VcsLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(raw: dict, source: str | None = None) -> ExperimentConfig:
    """Validate a raw mapping into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "config")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; pick one of {sorted(KINDS)}")
    schema = KINDS[kind]

    dim = raw.get("dim")
    if kind != "susy-grid":
        dim = _check(dim, Dim, "dim")
    elif dim is not None or "spectra" in raw:
        raise ConfigError("susy-grid configs size the grid via params.sizes, not dim or spectra")
    if "spectra" in raw and kind in ("nonisospectral", "map-equality-probe"):
        raise ConfigError(f"spectra is not read by kind {kind}, which builds its own ladders")

    spectra = ()
    if "spectra" in raw:
        spectra = _check(raw["spectra"], tuple[SpectralSequence, ...], "spectra", dim)
    if kind in ("vcs-verify", "resolution") and not spectra:
        raise ConfigError(f"kind {kind} needs spectra")
    if kind == "intertwine-example" and len(spectra) != 2:
        raise ConfigError("intertwine-example needs exactly two spectra")
    params = _build(schema, raw.get("params", {}), "params", dim)
    if hasattr(params, "resolve"):
        params = params.resolve(dim, spectra)
    if getattr(params, "family", None) == "eds" and "delta" in raw.get("params", {}):
        raise ConfigError("params.delta is not read by the eds family")
    # a repeated label would report one check twice and judge it once
    for key in getattr(schema, "LABELS", {}):
        labels = check_labels(params, key)
        for i, name in enumerate(labels):
            if (first := labels.index(name)) < i:
                raise ConfigError(f"params.{key}[{i}] repeats the check label {name} of entry {first}")

    tolerances = dict(schema.TOLERANCES)
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be a mapping")
    _reject_unknown(overrides, set(tolerances), f"tolerances of kind {kind}")
    windows = [bounds for _, bounds, comparator in schema.CHECKS.values() if comparator == "within"]
    # a window's bounds may take either sign, as an exponent does; a one-sided tolerance is > 0
    signed = {key for bounds in windows for key in bounds}
    for key, value in overrides.items():
        tolerances[key] = _check(value, float if key in signed else Positive, f"tolerances.{key}")
    # an inverted window would fail every value
    for low, high in windows:
        if tolerances[low] > tolerances[high]:
            raise ConfigError(
                f"tolerances.{low} {tolerances[low]} exceeds tolerances.{high} {tolerances[high]}: no value can pass"
            )

    seed = _check(raw.get("seed", 0), Annotated[int, (0, math.inf)], "seed")
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
        params=params,
        tolerances=tolerances,
        output=output,
        source=source,
        as_written={
            "spectra": [dict(s) for s in raw.get("spectra", [])],
            "params": dict(raw.get("params", {})),
        },
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
