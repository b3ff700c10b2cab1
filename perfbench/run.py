"""Benchmark driver for vcslab: end-to-end and per-layer metrics on one workload.

    python3 perfbench/run.py --workload companion --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One item is what ``vcslab run`` does minus the file writes: a
config generated from a bundled YAML and ``--seed`` goes through
``parse_config`` (set-up), then ``run_experiment``, ``to_json`` and
``summary_text`` (timed).  A pass runs every item of the workload once, with
one job and one BLAS thread.  Passes repeat until the next one would
overrun ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
untraced passes; with ``--trace 1`` it carries the per-layer metrics of
traced passes, alternated with untraced ones to measure the tracing
overhead.  The lines above it give the host block, every item's verdict,
``fail_ratio`` and the verdict digest; ``perfbench/out/`` gets the full
result (and, when traced, the spans of the last traced pass).

Exit codes: 0 when a result was printed (``correct`` says whether the
outputs passed their checks), 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from tracing import END, ERROR, ITEM, LAYER, LIBRARY_LAYERS, NAME, START, Tracer, outermost_time, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 5
REPORT_KEYS = {
    "schema_version", "title", "kind", "anchor", "config", "seed",
    "library_version", "checks", "overall_pass", "wall_time_s", "timestamp",
}
CHECK_KEYS = {"name", "anchor", "value", "tolerance", "comparator", "passed"}

END_TO_END = {"wall_s": "s", "shipped_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
ALL_ITEM_IDS = [item.id for workload in WORKLOADS.values() for item in workload]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, for all workloads' items."""
    units = {}
    for layer in LIBRARY_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update({
        "intertwine.construct_companion_s": "s",
        "intertwine.grid_partner_comparison_s": "s",
        "hilbert.matmul_calls": "count",
        "hilbert.matmul_gflop": "GFLOP",
        "hilbert.dense_mb": "MiB",
        "hilbert.evolution_s": "s",
        "hilbert.grid_ladder_s": "s",
        "linalg.eigh_calls": "count",
        "linalg.eigh_complex_calls": "count",
        "linalg.eigh_s": "s",
        "linalg.eigh_n3_g": "n3/1e9",
        "linalg.svd_calls": "count",
        "linalg.svd_s": "s",
        "experiments.self_s": "s",
        "config.parse_s": "s",
        "reporting.self_s": "s",
        "numpy.warnings": "count",
        "trace.overhead_s": "s",
    })
    units.update({f"experiments.{item_id}_s": "s" for item_id in ALL_ITEM_IDS})
    return units


# -- host and provenance -------------------------------------------------------


def _openblas(verb: str):
    """``openblas_<verb>_num_threads`` of the OpenBLAS bundled with numpy, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    get = _openblas("get")
    return None if get is None else int(get())


def single_blas_thread() -> None:
    """Run BLAS on one thread.

    With two threads on a shared 2-vCPU VM, both spin at every call and a
    short hold-up of either vCPU stalls the pair: there the same dim-60 item
    read 0.41-0.75 s within a minute, against +-1% on one thread.
    """
    set_threads = _openblas("set")
    if set_threads is None:
        print("perfbench: cannot set the BLAS thread count; see blas_threads in the host block", file=sys.stderr)
    else:
        set_threads(1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "jobs": 1,
    }


# -- set-up --------------------------------------------------------------------

_IMPORT_PROBE = "import time; t = time.perf_counter(); import vcslab; print(time.perf_counter() - t)"


def _import_time() -> float:
    """``import vcslab`` in a fresh interpreter, as a user's ``vcslab run`` pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _warm_up() -> None:
    """Start the BLAS thread pool and the LAPACK paths the workloads use."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    np.linalg.eigh(a + a.conj().T)
    b = rng.standard_normal((256, 256))
    b @ b


def generate_configs(config_module, workload: str, seed: int, tiny: bool) -> list:
    """(item, parsed config) for every item, read from the bundled YAML files."""
    out = []
    for item in WORKLOADS[workload]:
        text = (SRC / "vcslab" / "configs" / f"{item.bundle}.yaml").read_text(encoding="utf-8")
        raw = generate(yaml.safe_load(text), item, seed, tiny)
        out.append((item, config_module.parse_config(raw, source=f"perfbench:{item.id}")))
    return out


def import_vcslab() -> dict:
    """Import the library from ``src/`` of this checkout and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import vcslab
        from vcslab import config, experiments, hilbert, intertwine, moments, reporting, spectra, vcs
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import vcslab from {SRC}: {exc}") from None
    if Path(vcslab.__file__).resolve().parent != SRC / "vcslab":
        raise SystemExit(f"perfbench: vcslab was imported from {vcslab.__file__}, not from {SRC}")
    return {
        "config": config, "experiments": experiments, "hilbert": hilbert,
        "intertwine": intertwine, "moments": moments, "reporting": reporting,
        "spectra": spectra, "vcs": vcs,
    }


# -- one item, one pass ------------------------------------------------------------


def check_output(report, text: str, summary: str, seed: int) -> tuple:
    """Check one report's output; returns (problems, verdict, all values finite).

    The verdict is the sorted list of (check name, passed).
    """
    try:
        record = json.loads(text)
    except ValueError as exc:
        return [f"to_json is not JSON: {exc}"], [], True
    problems = []
    missing = REPORT_KEYS - set(record)
    if missing:
        problems.append(f"report lacks {sorted(missing)}")
    checks = record.get("checks") or []
    if not checks:
        problems.append("report has no checks")
    verdict, finite = [], True
    for check in checks:
        if CHECK_KEYS - set(check):
            problems.append(f"check lacks {sorted(CHECK_KEYS - set(check))}")
            continue
        verdict.append((check["name"], bool(check["passed"])))
        if not math.isfinite(check["value"]):
            finite = False
            problems.append(f"check {check['name']} has non-finite value {check['value']}")
        if check["name"] not in summary:
            problems.append(f"summary_text omits check {check['name']}")
    if len({name for name, _ in verdict}) != len(verdict):
        problems.append("duplicate check names")
    if record.get("seed") != seed:
        problems.append(f"report seed {record.get('seed')} != generated seed {seed}")
    overall = all(passed for _, passed in verdict)
    if record.get("overall_pass") != overall or report.overall_pass != overall:
        problems.append("overall_pass disagrees with the checks")
    if f"overall: {'PASS' if overall else 'FAIL'}" not in summary:
        problems.append("summary_text verdict disagrees with the checks")
    return problems, sorted(verdict), finite


class Workload:
    """A workload's parsed configs, and the verdicts and counts its passes produced."""

    def __init__(self, experiments, configs, seed):
        self.experiments = experiments
        self.configs = configs
        self.seed = seed
        self.verdicts = {}
        self.item_failed = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, repeat=False) -> dict:
        """Run every item once; returns the pass's wall time and item times.

        With ``repeat``, each item runs ``item.repeats`` times back to back
        and its time is the median of those runs.
        """
        gc.collect()
        times = {}
        start = time.perf_counter()
        for item, config in self.configs:
            if tracer is not None:
                tracer.item = item.id
            repeats = item.repeats if repeat else 1
            times[item.id] = statistics.median(self._run_item(item, config) for _ in range(repeats))
        return {"wall": time.perf_counter() - start, "items": times}

    def _run_item(self, item, config) -> float:
        """Run and check one item; returns the seconds its run took."""
        t = time.perf_counter()
        try:
            report, _tables = self.experiments.run_experiment(config, jobs=1)
            text, summary = report.to_json(), report.summary_text()
        except Exception as exc:  # a failed item is a result, not a harness fault
            elapsed = time.perf_counter() - t
            self._record(item, f"raised {type(exc).__name__}", failed=True)
            return elapsed
        elapsed = time.perf_counter() - t
        problems, verdict, finite = check_output(report, text, summary, self.seed)
        self.problems += [f"{item.id}: {p}" for p in problems]
        self._record(item, [list(v) for v in verdict], failed=not (report.overall_pass and finite))
        return elapsed

    def _record(self, item, outcome, failed):
        if self.verdicts.setdefault(item.id, outcome) != outcome:
            self.problems.append(f"{item.id}: verdict changed between passes")
        self.item_failed[item.id] = failed
        self.attempted += 1
        self.failed += int(failed)

    def digest(self) -> str:
        canonical = json.dumps(self.verdicts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# -- per-layer metrics of one traced pass ----------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    layers = LIBRARY_LAYERS + ("experiments", "reporting")
    calls = dict.fromkeys(layers, 0)
    self_s = dict.fromkeys(layers, 0.0)
    errors = dict.fromkeys(layers, 0)
    name_calls, name_time, item_time = {}, {}, {}
    for span, own in zip(spans, self_times(spans)):
        name, layer, duration = span[NAME], span[LAYER], span[END] - span[START]
        if layer in calls:
            calls[layer] += 1
            self_s[layer] += own
            errors[layer] += int(span[ERROR])
        name_calls[name] = name_calls.get(name, 0) + 1
        name_time[name] = name_time.get(name, 0.0) + duration
        if name == "experiments.run_experiment":
            item_time[span[ITEM]] = item_time.get(span[ITEM], 0.0) + duration
    m = {}
    for layer in LIBRARY_LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    m.update({
        "intertwine.construct_companion_s": outermost_time(spans, {"intertwine.construct_companion"}),
        "intertwine.grid_partner_comparison_s": outermost_time(spans, {"intertwine.grid_partner_comparison"}),
        "hilbert.matmul_calls": name_calls.get("BlockOperator.__matmul__", 0),
        "hilbert.matmul_gflop": tracer.counters["matmul_gflop"],
        "hilbert.dense_mb": tracer.counters["dense_bytes"] / 2**20,
        "hilbert.evolution_s": outermost_time(
            spans, {"hilbert.evolution_operator", "hilbert.delta_evolution_operator"}
        ),
        "hilbert.grid_ladder_s": outermost_time(spans, {"hilbert.grid_ladder"}),
        "linalg.eigh_calls": name_calls.get("linalg.eigh", 0),
        "linalg.eigh_complex_calls": int(tracer.counters["eigh_complex_calls"]),
        "linalg.eigh_s": name_time.get("linalg.eigh", 0.0),
        "linalg.eigh_n3_g": tracer.counters["eigh_n3"] / 1e9,
        "linalg.svd_calls": name_calls.get("linalg.svd", 0),
        "linalg.svd_s": name_time.get("linalg.svd", 0.0),
        "experiments.self_s": self_s["experiments"],
        "reporting.self_s": self_s["reporting"],
        "numpy.warnings": tracer.warnings,
    })
    m.update({f"experiments.{item_id}_s": item_time.get(item_id, 0.0) for item_id in ALL_ITEM_IDS})
    return m


# -- the run -------------------------------------------------------------------------


def setup_once(config_module, workload: str, seed: int, tiny: bool):
    """One set-up: ``import vcslab`` in a fresh interpreter, then every config
    generated and parsed; returns (seconds, configs)."""
    import_s = _import_time()
    t = time.perf_counter()
    configs = generate_configs(config_module, workload, seed, tiny)
    return import_s + time.perf_counter() - t, configs


def traced_parse_time(tracer, modules, workload, seed, tiny) -> float:
    """Median over repeats of the time ``parse_config`` takes for all items."""
    reps = []
    for _ in range(SETUP_REPEATS):
        with tracer.installed(modules):
            tracer.item = "setup"
            generate_configs(modules["config"], workload, seed, tiny)
        reps.append(sum(s[END] - s[START] for s in tracer.spans if s[NAME] == "config.parse_config"))
    return statistics.median(reps)


def end_to_end(bench: Workload, deadline: float, setup) -> dict:
    """Untraced passes until the next would overrun ``deadline``.

    One more set-up (``setup()``) runs before each pass, so the set-up
    samples spread over the whole run like the passes do.  An item's time is
    its median over the passes, and ``wall_s`` (``shipped_s``) sums those
    of all (the as-shipped) items: one slow item in one pass cannot move it.
    The short as-shipped items of ``companion`` and ``coherent`` repeat
    within each pass (``Item.repeats``), so their medians rest on more runs.
    """
    passes, setup_reps = [], []
    while True:
        start = time.perf_counter()
        setup_reps.append(setup())
        passes.append(bench.run_pass(repeat=True))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    item_s = {item.id: statistics.median(p["items"][item.id] for p in passes) for item, _ in bench.configs}
    return {
        "pass_walls": [p["wall"] for p in passes],
        "setup_reps": setup_reps,
        "metrics": {
            "wall_s": sum(item_s.values()),
            "shipped_s": sum(item_s[item.id] for item, _ in bench.configs if item.shipped),
        },
        "item_s": item_s,
    }


def traced(bench: Workload, tracer: Tracer, modules: dict, deadline: float) -> dict:
    """Pairs of untraced and traced passes until the next pair would overrun ``deadline``."""
    plain, traced_walls, layer_runs = [], [], []

    def traced_pass():
        with tracer.installed(modules):
            traced_walls.append(bench.run_pass(tracer)["wall"])
        layer_runs.append(layer_metrics(tracer))

    while True:
        start = time.perf_counter()
        # alternate which pass of a pair goes first, so warming up is not
        # charged to one side of the tracing overhead
        if len(traced_walls) % 2:
            traced_pass()
        plain.append(bench.run_pass()["wall"])
        if len(traced_walls) < len(plain):
            traced_pass()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    return {"plain_walls": plain, "traced_walls": traced_walls, "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    single_blas_thread()
    modules = import_vcslab()
    setup_reps = []
    for _ in range(1 if trace else SETUP_REPEATS):
        setup_s, configs = setup_once(modules["config"], workload, seed, tiny)
        setup_reps.append(setup_s)
    # the warm-up comes after the import probes, so BLAS threads that spin
    # after work cannot compete with them
    t = time.perf_counter()
    _warm_up()
    warm_up_s = time.perf_counter() - t
    bench = Workload(modules["experiments"], configs, seed)
    if trace:
        tracer = Tracer()
        parse_s = traced_parse_time(tracer, modules, workload, seed, tiny)
        measured = traced(bench, tracer, modules, time.perf_counter() + seconds)
        measured["metrics"]["config.parse_s"] = parse_s
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
        units = per_layer_units()
    else:
        measured = end_to_end(
            bench, time.perf_counter() + seconds,
            lambda: setup_once(modules["config"], workload, seed, tiny)[0],
        )
        setup_reps += measured.pop("setup_reps")
        measured["setup_reps"] = setup_reps
        measured["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured["metrics"]["setup_s"] = statistics.median(setup_reps) + warm_up_s
        units = END_TO_END
    metrics = measured.pop("metrics")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "host": host_info(),
        "correct": not bench.problems,
        "problems": bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "item_failed": bench.item_failed,
        "fail_ratio": sum(bench.item_failed.values()) / len(bench.item_failed),
        "verdicts": bench.verdicts,
        "digest": bench.digest(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **measured,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every item (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vcslab" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"host {json.dumps(result['host'], sort_keys=True)}")
    for item_id, outcome in result["verdicts"].items():
        verdict = outcome if isinstance(outcome, str) else ("FAIL" if result["item_failed"][item_id] else "PASS")
        print(f"item {item_id}: {verdict}")
    for problem in result["problems"]:
        print(f"problem {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<44} {entry['value']:.6g} {entry['unit']}")
    failed_items = f"{sum(result['item_failed'].values())}/{len(result['item_failed'])} items"
    print(f"{'fail_ratio':<44} {result['fail_ratio']:.6g} ratio ({failed_items})")
    print(f"verdict digest {result['digest']} over {result['attempted']} item runs")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
