"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense_cell --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --record-references     # rewrite reference.json

Workloads (see ``BENCHMARK.json`` and ``spec.json``): ``report_quick``,
``dense_cell``, ``city_floor``, ``csr_floor``.  Each is a batch job
with a single client in a closed loop: one repetition at a time, in this
process, on the serial executor, with every ``REPRO_*`` knob cleared.

``--trace 0`` measures the end-to-end metrics.  Repetitions of the
workload run back to back for ``--seconds``; each metric is the median
over them.  ``--trace 1`` measures the per-layer split: half the time
untraced (only to state the tracing overhead), half with every layer's
entry points wrapped by :mod:`tracing`.  No end-to-end number comes from
a traced repetition.

Every repetition's output is checked (:mod:`workloads`).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run's details (versions, ``nproc``, knob
state, per-layer self times).  The exit code is 0 only when every check
passed; without the package sources next to this directory the runner
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-interpreter import probes per run (after one untimed warm-up
#: that also leaves compiled bytecode behind).
IMPORT_PROBES = 5

#: Upper bound of one probe; a hung interpreter fails the run instead of
#: the driver's time limit.
PROBE_TIMEOUT_S = 60.0


def clean_environment() -> Dict[str, str]:
    """Drop every ``REPRO_*`` knob from this process; return what was set.

    The benchmark measures the default execution path: no vector or
    spatial PHY mode, no hot-path override, no worker pool, result cache,
    profiler or trace categories, whatever the caller's shell exports.
    """
    cleared = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}
    for key in cleared:
        del os.environ[key]
    return cleared


def child_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def import_probe(modules: Tuple[str, ...]) -> Tuple[float, float]:
    """Start a fresh interpreter that imports ``modules``.

    Returns (wall seconds from spawn to exit, seconds the imports took
    inside the child).
    """
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(time.perf_counter() - t)\n"
    )
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_environment(), cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    wall = time.perf_counter() - started
    return wall, float(done.stdout.strip().splitlines()[-1])


def import_setup_s(modules: Tuple[str, ...], whole_interpreter: bool) -> float:
    import_probe(modules)  # warm-up: file cache, and bytecode where it may be written
    samples = [import_probe(modules) for _ in range(IMPORT_PROBES)]
    return statistics.median(wall if whole_interpreter else inner for wall, inner in samples)


def repeat_for(budget_s: float, once: Callable[[], float]) -> List[float]:
    """Call ``once`` (which returns its own duration) until ``budget_s``
    would be exceeded by one more call of median length; at least once."""
    deadline = time.perf_counter() + budget_s
    durations: List[float] = []
    while True:
        durations.append(once())
        if time.perf_counter() + statistics.median(durations) > deadline:
            return durations


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted/failed over a run, and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, operations: int, failed: int = 0,
               error: Optional[BaseException] = None) -> None:
        """Count ``operations``; all of them fail when ``error`` is set."""
        self.attempted += operations
        self.failed += operations if error is not None else failed
        if error is not None:
            self.errors.append(f"{type(error).__name__}: {error}")


def scenario_rep(name: str, seed: int, length: str, references: dict,
                 outcome: Outcome, first: dict, tracer=None) -> Dict[str, float]:
    """Build, run and check one scenario repetition."""
    scenario = workloads.SCENARIOS[name]
    counts = workloads.NetworkCounters(("channel/frames_sent",) if tracer is None else None)
    gc.collect()
    error = None
    build_s = wall_s = 0.0
    try:
        with installed(tracer), counts:
            started = time.perf_counter()
            with span(tracer, "bench.build"):
                net = scenario.build(seed)
            built = time.perf_counter()
            with span(tracer, "bench.run"):
                net.run(scenario.sim_s[length])
            finished = time.perf_counter()
        build_s, wall_s = built - started, finished - built
        output = workloads.scenario_output(net)
        workloads.check_scenario(name, length, seed, net, output, references)
        if "output" in first:
            workloads.compare_output(output, first["output"], f"{name} seed {seed} repeated")
        else:
            first["output"] = output
    except Exception as exc:  # every failure is counted and reported
        error = exc
    outcome.record(1, error=error)
    return {"build_s": build_s, "wall_s": wall_s,
            "frames": counts.get("channel/frames_sent"), "counts": counts}


def report_rep(seed: int, references: dict, outcome: Outcome,
               tracer=None) -> Dict[str, float]:
    """One ``report --quick`` repetition, checked."""
    counts = workloads.NetworkCounters(("channel/frames_sent",) if tracer is None else None)
    gc.collect()
    wall_s = 0.0
    tasks = 1
    out_dir = os.path.join(OUT, "report_quick")
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with installed(tracer), counts:
            started = time.perf_counter()
            with span(tracer, "bench.run"):
                workloads.run_report(seed, out_dir)
            wall_s = time.perf_counter() - started
        output = workloads.report_output(out_dir)
        tasks = max(output["tasks"], 1)
        workloads.check_report(output, seed, references)
        outcome.record(tasks, failed=output["failures"])
    except Exception as exc:  # every failure is counted and reported
        outcome.record(tasks, error=exc)
    return {"build_s": 0.0, "wall_s": wall_s,
            "frames": counts.get("channel/frames_sent"), "counts": counts}


def installed(tracer):
    """The tracer as a context manager (install/uninstall), or a no-op."""
    return tracer if tracer is not None else contextlib.nullcontext()


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reps: List[dict], setup_s: float, outcome: Outcome) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": setup_s,
        "frames_per_s": statistics.median(ratio(rep["frames"], rep["wall_s"]) for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - ratio(outcome.failed, outcome.attempted),
    }


def per_layer(tracer, reps: List[dict], untraced: List[dict]) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics, averaged per traced repetition."""
    n = len(reps)
    totals = tracer.layer_totals()
    calls = tracer.call_counts()
    merged = workloads.NetworkCounters()
    for rep in reps:
        merged.merge(rep["counts"])
    counters = merged.totals

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_ns", 0) / 1e9 / n

    def layer_calls(layer: str) -> int:
        return totals.get(layer, {}).get("calls", 0)

    def calls_of(suffix: str) -> int:
        return sum(count for name, count in calls.items() if name.endswith(suffix))

    frames = counters.get("channel/frames_sent", 0)
    notified = calls_of(":Radio.on_air_start")
    culled = counters.get("channel/culled_links", 0)
    roots_ns = tracer.inclusive_ns(["bench.build", "bench.run"])
    harness_ns = totals.get("bench", {}).get("self_ns", 0)
    # A scenario's build is the harness's build span; report_quick's
    # builds are the module-level topology builders it calls.
    builders = [name for name in tracer.name_table
                if name.startswith("repro.experiments.topologies:")
                and "." not in name.split(":", 1)[1]]
    build_ns = tracer.inclusive_ns(["bench.build"]) or tracer.inclusive_ns(builders)
    traced_wall = statistics.median(rep["wall_s"] for rep in reps)
    untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
    metrics = {
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.events_fired": counters.get("sim/events_fired", 0) / n,
        "sim.engine.fired_ratio": ratio(counters.get("sim/events_fired", 0), tracer.scheduled),
        "sim.engine.heap_peak": counters.get("sim/heap_peak", 0),
        "phy.radio.self_s": self_s("phy.radio"),
        "phy.radio.notifications_per_frame": ratio(notified + calls_of(":Radio.on_air_end"), frames),
        "mac.dcf.self_s": self_s("mac.dcf"),
        "mac.dcf.callbacks_per_frame": ratio(layer_calls("mac.dcf"), frames),
        "mac.dcf.success_ratio": ratio(counters.get("mac/successes", 0),
                                       counters.get("mac/data_transmissions", 0)),
        "phy.channel.self_s": self_s("phy.channel"),
        "phy.channel.frames_sent": frames / n,
        "phy.channel.culled_ratio": ratio(culled, culled + notified),
        "net.mobility.self_s": self_s("net.mobility"),
        "net.network.self_s": self_s("net.network"),
        "mac.comap.self_s": self_s("mac.comap"),
        "mac.comap.validated_ratio": ratio(
            counters.get("comap/opportunities_validated", 0),
            counters.get("comap/opportunities_validated", 0)
            + counters.get("comap/opportunities_rejected", 0)),
        "mac.csr.self_s": self_s("mac.csr"),
        "mac.csr.grant_ratio": ratio(
            counters.get("csr/concurrent_granted", 0),
            counters.get("csr/concurrent_granted", 0) + counters.get("csr/concurrent_denied", 0)),
        "net.backhaul.self_s": self_s("net.backhaul"),
        "net.backhaul.deliveries": counters.get("csr/backhaul_deliveries", 0) / n,
        "core.self_s": self_s("core"),
        "net.traffic.self_s": self_s("net.traffic"),
        "experiments.parallel.overhead_s": self_s("experiments.parallel"),
        "experiments.parallel.tasks": layer_calls("experiments.task") / n,
        "experiments.topologies.build_s": build_ns / 1e9 / n,
        "obs.manifest.write_s": self_s("obs.manifest"),
        "analytical.self_s": self_s("analytical"),
        "gc.pause_s": self_s("gc"),
        "gc.collections": layer_calls("gc") / n,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.covered_ratio": 1.0 - ratio(harness_ns, roots_ns),
    }
    layers = {
        layer: {"self_s": entry["self_ns"] / 1e9 / n,
                "share": ratio(entry["self_ns"], roots_ns),
                "spans": entry["calls"]}
        for layer, entry in sorted(totals.items(), key=lambda item: -item[1]["self_ns"])
    }
    return metrics, layers


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 length: str = "full", references: Optional[dict] = None) -> Tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {workloads.WORKLOADS}")
    references = references if references is not None else workloads.load_references()
    os.makedirs(OUT, exist_ok=True)
    outcome = Outcome()
    reps: List[dict] = []
    if name == "report_quick":
        def once(tracer=None) -> float:
            reps.append(report_rep(seed, references, outcome, tracer))
            return reps[-1]["wall_s"]
        import_modules: Tuple[str, ...] = ("repro.experiments.report",)
    else:
        scenario = workloads.SCENARIOS[name]
        first: dict = {}

        def once(tracer=None) -> float:
            reps.append(scenario_rep(name, seed, length, references,
                                     outcome, first, tracer))
            return reps[-1]["build_s"] + reps[-1]["wall_s"]
        import_modules = scenario.imports
        # The run's untimed replay of a recorded reference seed.
        replay = workloads.reference_seed_for(seed)
        scenario_rep(name, replay, length, references, outcome, {})

    details = {"workload": name, "seed": seed, "trace": int(trace), "length": length}
    if not trace:
        setup_import_s = import_setup_s(import_modules, whole_interpreter=name == "report_quick")
        repeat_for(seconds, once)
        build_s = statistics.median(rep["build_s"] for rep in reps)
        metrics = end_to_end(reps, setup_import_s + build_s, outcome)
    else:
        repeat_for(seconds / 2, once)
        untraced, reps[:] = list(reps), []
        tracer = tracing.Tracer()
        repeat_for(seconds / 2, lambda: once(tracer))
        metrics, details["layers"] = per_layer(tracer, reps, untraced)
        spans_path = os.path.join(OUT, f"{name}.spans")
        details["spans"] = tracer.dump(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    details["repetitions"] = len(reps)
    details["rep_wall_s"] = [round(rep["wall_s"], 6) for rep in reps]
    details["errors"] = outcome.errors[:10]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, details


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment_details(cleared: Dict[str, str]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "knobs": {"cleared": cleared, "in_force": sorted(k for k in os.environ if k.startswith("REPRO_"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="re-run the reference seeds and rewrite reference.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    cleared = clean_environment()
    sys.path.insert(0, SRC)
    if args.record_references:
        workloads.record_references(OUT)
        print(f"wrote {workloads.REFERENCE_PATH}")
        return 0
    if not args.workload:
        parser.error("--workload is required")
    declared = declared_metrics(bool(args.trace))
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(result["metrics"]) != set(declared):
        raise SystemExit(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(declared)}")
    result["metrics"] = {
        key: {"value": float(result["metrics"][key]), "unit": unit} for key, unit in declared.items()
    }
    details.update(environment_details(cleared))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
