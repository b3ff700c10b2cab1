"""The benchmark's workloads: which bundled experiments run, at which sizes.

An item is one bundled YAML config, run either as shipped or with a few keys
changed.  Keys are dotted paths into the YAML mapping (``params.n_samples``).
Tolerances are never overridden: an item that fails at a larger size shows
up as a failure, which is the point of running it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Item:
    bundle: str
    suffix: str = ""
    overrides: dict = field(default_factory=dict)
    # runs back to back per end-to-end pass; the short shipped items repeat
    # so that their median time rests on more than two or three runs
    repeats: int = 1

    @property
    def id(self) -> str:
        return f"{self.bundle}.{self.suffix}" if self.suffix else self.bundle

    @property
    def shipped(self) -> bool:
        return not self.overrides


_EXAMPLES = [
    "example1-susy-qm",
    "example2-squared-intertwiner",
    "example3-cubed-intertwiner",
    "example4-ladder-product",
    "boson-example2",
    "quon-closed-forms",
    "map-equality-probes",
]
_VCS = ["vcs-eds-properties", "vcs-delta-properties"]
_RESOLUTION = ["resolution-eds", "resolution-delta", "delta-zero-failure"]
_SHORT_REPEATS = 3

# Each as-shipped item runs right before its scaled twin.  Spread through the
# pass like this, the short shipped items sample the machine's speed over the
# whole pass instead of over its first second, which steadies shipped_s.
WORKLOADS = {
    # dense complex companion algebra on N*D = 480: BlockOperator matmuls,
    # construct_companion (window-inverse eigh, certificate) and apply_map
    "companion": [it for b in _EXAMPLES for it in (Item(b, repeats=_SHORT_REPEATS), Item(b, "d240", {"dim": 240}))],
    # coherent-state assembly and evolution (vcs, hilbert) and the moment
    # quadrature (intertwine only fits power laws); dim 160 sits at the
    # resolution overflow ceiling
    "coherent": [
        it for b in _VCS
        for it in (Item(b, repeats=_SHORT_REPEATS), Item(b, "d240", {"dim": 240, "params.n_samples": 20}))
    ] + [
        it for b in _RESOLUTION
        for it in (Item(b, repeats=_SHORT_REPEATS), Item(b, "d160", {"dim": 160, "params.n_nodes": 82}))
    ],
    # grid partner comparison: complex eigh and 1024^2 matmuls; the squared
    # map runs the same code as the identity map, which apply_map also
    # eigendecomposes
    "grid": [
        Item("susy-grid-linear"),
        Item("susy-grid-linear", "squared", {"params.map_coeffs": [0, 0, 1]}),
        Item("susy-grid-anharmonic"),
    ],
}

# Sizes of the smoke-test pass, per kind: small enough to run a workload in
# seconds.  Item ids stay the same, so the smoke test sees every metric name.
TINY = {
    "susy-grid": {"params.sizes": [64, 128]},
    "vcs-verify": {"dim": 32, "params.n_samples": 3},
}
TINY_DEFAULT = {"dim": 16}


def generate(raw: dict, item: Item, seed: int, tiny: bool = False) -> dict:
    """The raw config of ``item``: its bundled YAML with the overrides and ``seed`` set."""
    overrides = dict(item.overrides)
    if tiny:
        overrides.update(TINY.get(raw["kind"], TINY_DEFAULT))
    out = {**raw, "params": dict(raw.get("params", {})), "seed": seed}
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        if section == "params":
            out["params"][name] = value
        else:
            out[name] = value
    return out
