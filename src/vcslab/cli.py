"""Command-line front end.

    vcslab run <config-or-bundled-name> [--out DIR] [--seed N]
    vcslab list

``run`` accepts either a YAML config path or the name of a bundled
experiment.  It writes a JSON report, a text summary, and any plot tables to
the output directory, prints the summary, and exits 0 when every check
passed, 1 when a check failed or the experiment could not complete, and 2 on
a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, bundled_names, load_bundled, load_config
from .errors import ConfigError, VcsLabError
from .experiments import run_experiment

__all__ = ["main"]


def _resolve(spec: str) -> ExperimentConfig:
    path = Path(spec)
    if path.exists():
        return load_config(path)
    if spec in bundled_names():
        return load_bundled(spec)
    raise ConfigError(
        f"{spec!r} is neither a config file nor a bundled experiment; "
        f"run 'vcslab list' for the bundled inventory"
    )


def _report_stem(config: ExperimentConfig) -> str:
    if config.source and config.source.startswith("bundled:"):
        return config.source.split(":", 1)[1]
    if config.source:
        return Path(config.source).stem
    return config.kind


def _cmd_run(args) -> int:
    try:
        # the flags and the output path are checked before the run, as the config is
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed {args.seed} outside allowed range [0, inf]")
        config = _resolve(args.config)
        out_dir = Path(args.out or config.output or "reports")
        if blocker := next((p for p in (out_dir, *out_dir.parents) if p.exists() and not p.is_dir()), None):
            key = "--out" if args.out else "output"
            raise ConfigError(f"{key} {str(out_dir)!r} runs through {str(blocker)!r}, a file")
        report, tables = run_experiment(config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VcsLabError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _report_stem(config)
    (out_dir / f"{stem}.report.json").write_text(report.to_json(), encoding="utf-8")
    (out_dir / f"{stem}.summary.txt").write_text(report.summary_text(), encoding="utf-8")
    for name, text in tables.items():
        (out_dir / f"{stem}.{name}").write_text(text, encoding="utf-8")

    print(report.summary_text(), end="")
    print(f"report written to {out_dir / (stem + '.report.json')}")
    return 0 if report.overall_pass else 1


def _cmd_list(_args) -> int:
    for name in bundled_names():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vcslab",
        description="batch verification runs for coherent-state and companion-Hamiltonian experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment config")
    run_parser.add_argument("config", help="YAML config path or bundled experiment name")
    run_parser.add_argument("--out", help="output directory (default: config output or ./reports)")
    run_parser.add_argument("--seed", type=int, help="override the config's random seed")
    run_parser.set_defaults(func=_cmd_run)

    list_parser = sub.add_parser("list", help="list bundled experiment configs")
    list_parser.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
