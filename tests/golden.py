"""Golden check values of the shipped bundles, and the script that rewrites them.

``golden_checks.json`` holds, for every bundle shipped in
``src/vcslab/configs``, each check's name, comparator, tolerance and value,
in report order, as the report's JSON writes them (a ``within`` tolerance is
the list ``[low, high]``), and each table's lines.  ``tests/test_bundles.py``
compares a fresh run against it.  Rewrite the file after a change that moves
a value on purpose, and name each moved value and its cause in CHANGES.md::

    PYTHONPATH=src python tests/golden.py

Before it writes, the script prints each check row added, removed or moved
against the file it replaces.

Only the standard library and ``vcslab`` are imported.
"""

from __future__ import annotations

import json
from pathlib import Path

from vcslab import config
from vcslab.experiments import run_experiment

PATH = Path(__file__).with_name("golden_checks.json")


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


def main() -> None:
    golden = {name: record(*run_experiment(config.load_bundled(name))) for name in config.bundled_names()}
    for line in changes(load() if PATH.exists() else {}, golden):
        print(line)
    # json writes each float so that it reads back to the same bits
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} bundles to {PATH}")


if __name__ == "__main__":
    main()
