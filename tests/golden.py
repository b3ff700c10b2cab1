"""Golden check values of the shipped bundles, and the script that rewrites them.

``golden_checks.json`` holds, for every bundle shipped in
``src/vcslab/configs``, each check's name, comparator, tolerance and value,
in report order, as the report's JSON writes them (a ``within`` tolerance is
the list ``[low, high]``), and each table's lines.  ``tests/test_bundles.py``
compares a fresh run against it, allowing each value to move by
``REL_BOUND`` relative (:func:`close`).  Rewrite the file after a change that
moves a value on purpose, and name each moved value and its cause in
CHANGES.md::

    PYTHONPATH=src python tests/golden.py

The rewrite keeps the committed value of every check row and table cell
that :func:`close` accepts, so rounding on another machine writes nothing;
before it writes, the script prints each check row added, removed or moved
against the file it replaces.

Only the standard library and ``vcslab`` are imported.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from vcslab import config
from vcslab.experiments import run_experiment

PATH = Path(__file__).with_name("golden_checks.json")

#: how far a value may move, relative to its golden value.  Rounding on
#: another BLAS or LAPACK build moves the grid values by far less; the 1.5e-4
#: relative move of a change of eigenbasis trips it.  A zero stays exactly zero.
REL_BOUND = 1e-9


def close(got: float, want: float) -> bool:
    """``got`` within ``REL_BOUND`` of ``want``; a NaN or an inf matches only itself."""
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= REL_BOUND * abs(want)


def record(report, tables) -> dict:
    """The golden entry of one run: its checks as its JSON reads back, and its tables, as lines."""
    checks = json.loads(report.to_json())["checks"]
    return {
        "checks": [[c["name"], c["comparator"], c["tolerance"], c["value"]] for c in checks],
        "tables": {name: text.splitlines() for name, text in sorted(tables.items())},
    }


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def changes(old: dict, new: dict) -> list:
    """One line per check row added, removed or moved from the golden dict
    ``old`` to ``new``: its bundle and name, and its value (with comparator
    and tolerance) before and after, ``-`` where it is absent."""

    def rows(golden):
        return {(bundle, row[0]): row[1:] for bundle, entry in golden.items() for row in entry["checks"]}

    def shown(row):
        # repr: the float as json reads it back, so a NaN row equals itself
        return "-" if row is None else f"{row[2]!r} ({row[0]} {row[1]!r})"

    before, after = rows(old), rows(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key), after.get(key)
        if shown(was) != shown(now):
            label = "added" if was is None else "removed" if now is None else "moved"
            lines.append(f"{label} {key[0]} {key[1]}: {shown(was)} -> {shown(now)}")
    return lines


def kept(old: dict, new: dict) -> dict:
    """``new`` with the value of ``old`` wherever :func:`close` accepts the
    new one: in each check row of the same bundle and name, and in each cell
    of a table of the same bundle, name and length (headers are new)."""

    def line(got: str, want: str) -> str:
        if got.startswith("#") or got.count("\t") != want.count("\t"):
            return got
        cells = zip(got.split("\t"), want.split("\t"))
        return "\t".join(w if close(float(g), float(w)) else g for g, w in cells)

    out = {}
    for bundle, entry in new.items():
        was = old.get(bundle, {"checks": [], "tables": {}})
        values = {row[0]: row[3] for row in was["checks"]}
        checks = [
            [*row[:3], values[row[0]]] if row[0] in values and close(row[3], values[row[0]]) else row
            for row in entry["checks"]
        ]
        tables = {}
        for name, lines in entry["tables"].items():
            before = was["tables"].get(name, [])
            tables[name] = list(map(line, lines, before)) if len(before) == len(lines) else lines
        out[bundle] = {"checks": checks, "tables": tables}
    return out


def main() -> None:
    fresh = {name: record(*run_experiment(config.load_bundled(name))) for name in config.bundled_names()}
    old = load() if PATH.exists() else {}
    golden = kept(old, fresh)
    for line in changes(old, golden):
        print(line)
    # json writes each float so that it reads back to the same bits
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} bundles to {PATH}")


if __name__ == "__main__":
    main()
