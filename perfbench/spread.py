"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload grid --seeds 0 1 2 3 4 --seconds 40

Each seed is one ``run.py`` process.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, which is what the
bounds in ``BENCHMARK.json`` are compared with.  ``--out`` also writes the
raw values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values, failed = {}, []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            failed.append(seed)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {name: summarize(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        print(f"{name:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{verdict}")
    if failed:
        print(f"outputs incorrect on seeds {failed}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
