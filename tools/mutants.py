"""Mutation pilot: how many small faults in a module does the test suite catch?

Each mutant changes one site of one module of ``src/vcslab``:

- ``+`` and ``-`` swapped, ``*`` and ``/`` swapped;
- ``<`` and ``<=`` swapped, ``>`` and ``>=`` swapped;
- a call of ``max`` or ``_worst`` turned into ``min``;
- ``abs(x)`` turned into ``x``.

Docstrings and comments are never touched.  The mutated module is written
back with ``ast.unparse`` into a copy of the repository, and the mutant is
killed when ``python -m pytest -x -q tests`` fails there (a run longer than
``TIMEOUT`` seconds counts as killed).  The copy lives in a temporary
directory that is removed at exit; the working tree is never written to.

Run by hand from the repository root, standard library only::

    python tools/mutants.py moments intertwine

Prints one line per mutant (``KILLED`` or ``SURVIVED``, the line and the
change) and a kill count per module.  A full run takes the suite's run time
per surviving mutant, a fraction of it per killed one.
"""

from __future__ import annotations

import argparse
import ast
import copy
import functools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per suite run

_SWAP = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
}


def _sites(tree: ast.Module):
    """``(lineno, change, apply)`` for every mutable site of ``tree``, in
    walk order; ``apply()`` makes that one change in ``tree`` in place."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            new = _SWAP[type(node.op)]
            yield node.lineno, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}", functools.partial(
                setattr, node, "op", new()
            )
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    new = _SWAP[type(op)]
                    yield node.lineno, f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}", functools.partial(
                        node.ops.__setitem__, i, new()
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("max", "_worst"):
                yield node.lineno, f"{node.func.id} -> min", functools.partial(
                    setattr, node, "func", ast.Name(id="min", ctx=ast.Load())
                )
            elif node.func.id == "abs" and len(node.args) == 1 and not node.keywords:
                # abs(x) -> (lambda v: v)(x)
                identity = ast.parse("lambda v: v", mode="eval").body
                yield node.lineno, "abs dropped", functools.partial(setattr, node, "func", identity)


def _run_suite(workdir: Path) -> bool:
    """True when the suite fails (the mutant is killed)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def _mutate(workdir: Path, modules: list[str]) -> int:
    """Run every mutant of each of ``modules`` in the copy at ``workdir``."""
    if _run_suite(workdir):
        print("the unmutated suite fails: no mutant can be judged", file=sys.stderr)
        return 1

    totals = []
    for module in modules:
        path = workdir / "src" / "vcslab" / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        sites = list(_sites(tree))
        killed = 0
        for index, (lineno, change, _) in enumerate(sites):
            mutant = copy.deepcopy(tree)
            list(_sites(mutant))[index][2]()
            path.write_text(ast.unparse(mutant) + "\n", encoding="utf-8")
            dead = _run_suite(workdir)
            killed += dead
            print(f"{'KILLED  ' if dead else 'SURVIVED'} {module}.py:{lineno}  {change}", flush=True)
        path.write_text(source, encoding="utf-8")
        totals.append((module, len(sites), killed))

    print("\n| module | mutants | killed | survived |\n| --- | --- | --- | --- |")
    for module, count, killed in totals:
        print(f"| `{module}.py` | {count} | {killed} | {count - killed} |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/vcslab, without .py")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        workdir = Path(scratch) / "repo"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "out"))
        return _mutate(workdir, args.modules)


if __name__ == "__main__":
    sys.exit(main())
