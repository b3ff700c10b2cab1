"""Golden check values of the shipped bundles, and the script that rewrites them.

``golden_checks.json`` holds, for every bundle shipped in
``src/vcslab/configs``, each check's name, comparator, tolerance and value,
in report order, and each table's lines.  ``tests/test_bundles.py`` compares
a fresh run against it.  Rewrite the file after a change that moves a value
on purpose, and name each moved value and its cause in CHANGES.md::

    PYTHONPATH=src python tests/golden.py

Only the standard library and ``vcslab`` are imported.
"""

from __future__ import annotations

import json
from pathlib import Path

from vcslab import config
from vcslab.experiments import run_experiment

PATH = Path(__file__).with_name("golden_checks.json")


def record(report, tables) -> dict:
    """The golden entry of one run: its checks and its tables, as lines."""
    return {
        "checks": [[c.name, c.comparator, c.tolerance, c.value] for c in report.checks],
        "tables": {name: text.splitlines() for name, text in sorted(tables.items())},
    }


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> None:
    golden = {name: record(*run_experiment(config.load_bundled(name))) for name in config.bundled_names()}
    # json writes each float so that it reads back to the same bits
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} bundles to {PATH}")


if __name__ == "__main__":
    main()
