"""The benchmark's four workloads, their output capture and output checks.

Every workload goes through the package's public entry points on the
default execution path: :func:`repro.experiments.report.generate` for
``report_quick``, and ``Network`` construction, ``finalize``, traffic
install and :meth:`Network.run` for the three scenarios.  Package
modules are reached through module attributes (``report.generate``, not
``from ... import generate``) so that the tracer's wrappers see the calls.

Outputs are checked three ways:

* against ``reference.json`` when the seed is a reference seed;
* against seed-independent invariants otherwise (frames conserved, no
  flow delivering more than its source offered, CSV shape and the
  columns that are the same for every seed);
* for scenarios, every repetition of one seed must reproduce the first
  one exactly, and each run also replays one reference seed (see
  :func:`reference_seed_for`) untimed, so every run checks the simulator
  against the recorded outputs.
"""

from __future__ import annotations

import csv
import glob
import inspect
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The seed every output reference is recorded for, and a second one
#: kept out of any tuning, so a change fitted to the default seed shows.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Simulated lengths.  ``toy`` is for the benchmark's own tests.
LENGTHS = ("full", "toy")


class CheckFailed(AssertionError):
    """A workload's output disagrees with its reference or an invariant."""


def reference_seed_for(seed: int) -> int:
    """The reference seed a run replays as its untimed output check."""
    return DEFAULT_SEED if seed % 2 == 0 else HELD_OUT_SEED


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Counting every Network a workload runs
# ----------------------------------------------------------------------
class NetworkCounters:
    """Sums ``Network.counters()`` deltas over every ``Network.run`` call.

    Installed around a workload by patching ``Network.run``: report
    sweeps build their networks deep inside sweep tasks, and this is the
    one public boundary they all cross.  ``keys=None`` keeps every
    counter (traced runs); otherwise only the named ones are read.
    Additive counters are summed; ``sim/heap_peak`` keeps the maximum.
    Enter it inside a :class:`tracing.Tracer` so that the counter reads
    bypass the tracer's spans and count as harness time.
    """

    MAX_KEYS = ("sim/heap_peak",)

    def __init__(self, keys: Optional[Tuple[str, ...]] = None) -> None:
        self.keys = keys
        self.totals: Dict[str, float] = {}
        self.runs = 0
        self._original = None

    def _fold(self, before: Dict[str, float], after: Dict[str, float]) -> None:
        totals = self.totals
        for key in after if self.keys is None else self.keys:
            value = after.get(key, 0)
            if key in self.MAX_KEYS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value - before.get(key, 0)

    def merge(self, other: "NetworkCounters") -> None:
        """Fold another observer's totals into this one's."""
        self._fold({}, other.totals)

    def __enter__(self) -> "NetworkCounters":
        from repro.net import network

        original = network.Network.__dict__["run"]
        counters = inspect.unwrap(network.Network.counters)
        observer = self

        def run(net, *args, **kwargs):
            before = counters(net)
            try:
                return original(net, *args, **kwargs)
            finally:
                observer._fold(before, counters(net))
                observer.runs += 1

        run.__qualname__ = original.__qualname__
        self._original = original
        network.Network.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.net import network

        network.Network.run = self._original

    def get(self, key: str) -> float:
        return self.totals.get(key, 0)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _dense_cell(seed: int):
    """20 saturated CO-MAP clients uplinking to one AP, all in range."""
    from repro.experiments import params
    from repro.net import network

    net = network.Network(params.ns2_params(), mac_kind="comap", seed=seed)
    ap = net.add_ap("AP", 0.0, 0.0)
    for i in range(20):
        net.add_client(f"C{i}", 5.0 + 0.5 * i, 5.0, ap=ap)
    net.finalize()
    for node in list(net.nodes.values()):
        if not node.is_ap:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    return net


def _city_floor(seed: int):
    """1,000 nodes: 200 cells 3 km apart, an 8-cell saturated DCF core and
    8 clients looping past their APs (the ``bench_scale_city`` shape)."""
    from repro.experiments import params
    from repro.net import mobility, network

    net = network.Network(params.ns2_params(), mac_kind="dcf", seed=seed)
    cells = []
    for i in range(200):
        cx = i * 3_000.0
        ap = net.add_ap(f"AP{i}", cx, 0.0)
        cells.append([
            net.add_client(f"C{i}-{j}", cx + 8.0 + 2.0 * j, 5.0, ap=ap)
            for j in range(4)
        ])
    net.finalize()
    for clients in cells[:8]:
        for node in clients:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    for i, clients in enumerate(cells[:8]):
        cx = i * 3_000.0
        mobility.LinearMobility(
            net, clients[0], waypoints=[(cx + 6.0, 5.0), (cx + 10.0, 5.0)],
            speed_mps=30.0, tick_s=0.02, loop=True,
        )
    return net


def _csr_floor(seed: int):
    """4 C-SR APs on one band, 2 clients each, 200 us backhaul, and
    downlink CBR above one collision domain's capacity."""
    from repro.experiments import params, topologies

    scenario = topologies.enterprise_floor_topology(
        "csr",
        topology_seed=2000,
        seed=seed,
        params=params.ns2_params().with_overrides(csr_backhaul_latency_ns=200_000),
        n_aps=4,
        clients_per_ap=2,
    )
    return scenario.network


@dataclass(frozen=True)
class Scenario:
    name: str
    build: Callable[[int], object]
    #: Simulated seconds per repetition, by length.
    sim_s: Dict[str, float]
    #: Modules a fresh interpreter imports before it can build the scenario.
    imports: Tuple[str, ...]


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("dense_cell", _dense_cell, {"full": 0.5, "toy": 0.05},
                 ("repro.experiments.params", "repro.net.network")),
        Scenario("city_floor", _city_floor, {"full": 0.05, "toy": 0.01},
                 ("repro.experiments.params", "repro.net.network",
                  "repro.net.mobility")),
        Scenario("csr_floor", _csr_floor, {"full": 0.5, "toy": 0.05},
                 ("repro.experiments.params", "repro.experiments.topologies",
                  "repro.net.network")),
    )
}

WORKLOADS = ("report_quick",) + tuple(SCENARIOS)


def scenario_output(net) -> dict:
    """Per-node radio counters and per-flow delivered bytes (by node name)."""
    names = {node_id: node.name for node_id, node in net.nodes.items()}
    nodes = {
        node.name: [
            node.radio.frames_transmitted,
            node.radio.frames_received,
            node.radio.frames_corrupted,
            node.radio.frames_missed,
        ]
        for node in net.nodes.values()
    }
    flows = {
        f"{names[src]}->{names[dst]}": flow.delivered_bytes
        for (src, dst), flow in sorted(net.results().flows.items())
    }
    return {"nodes": nodes, "flows": flows}


def check_scenario_invariants(net, output: dict) -> None:
    """Seed-independent properties every scenario run must have."""
    sent = net.counters().get("channel/frames_sent", 0)
    transmitted = sum(counts[0] for counts in output["nodes"].values())
    if transmitted != sent:
        raise CheckFailed(f"radios transmitted {transmitted} frames, channel sent {sent}")
    if sent <= 0 or sum(output["flows"].values()) <= 0:
        raise CheckFailed("nothing was sent or delivered")
    delivered = {
        flow_id: flow.delivered_packets for flow_id, flow in net.results().flows.items()
    }
    for source in net.sources:
        flow = getattr(source, "flow", None)
        offered = getattr(source, "packets_offered", None)
        if flow in delivered and offered is not None and delivered[flow] > offered:
            raise CheckFailed(
                f"flow {flow} delivered {delivered[flow]} packets, offered {offered}"
            )


def compare_output(got: dict, want: dict, label: str) -> None:
    """Raise :class:`CheckFailed` naming the first differing entries."""
    if got == want:
        return
    diffs: List[str] = []
    for section in sorted(set(got) | set(want)):
        mine, theirs = got.get(section, {}), want.get(section, {})
        for key in sorted(set(mine) | set(theirs)):
            if mine.get(key) != theirs.get(key):
                diffs.append(f"{section}/{key}: got {mine.get(key)!r}, want {theirs.get(key)!r}")
    raise CheckFailed(f"{label}: {len(diffs)} entries differ: " + "; ".join(diffs[:5]))


# ----------------------------------------------------------------------
# report --quick
# ----------------------------------------------------------------------
def report_output(out_dir: str) -> dict:
    """The report's CSVs (full text) plus task and failure counts."""
    csvs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, encoding="utf-8") as handle:
            csvs[os.path.basename(path)] = handle.read()
    tasks = failures = 0
    for path in sorted(glob.glob(os.path.join(out_dir, "*.manifest.json"))):
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        tasks += len(manifest.get("tasks") or [])
        failures += len(manifest.get("failures") or [])
    if not os.path.exists(os.path.join(out_dir, "report.md")):
        raise CheckFailed("report.md was not written")
    return {"csvs": csvs, "tasks": tasks, "failures": failures}


def _columns(text: str) -> Tuple[List[str], List[List[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [list(col) for col in zip(*rows[1:])]


def check_report_invariants(output: dict, references: Dict[str, dict]) -> None:
    """CSV shape against the references, for a seed without a reference.

    Every file, header and row count must match the reference seeds'.
    A column equal across all reference seeds (sweep coordinates such as
    ``c2_x_m``) must match exactly; every other cell must be a finite,
    non-negative number.
    """
    if output["failures"]:
        raise CheckFailed(f"{output['failures']} sweep tasks failed")
    first = next(iter(references.values()))
    if output["tasks"] != first["tasks"]:
        raise CheckFailed(f"{output['tasks']} sweep tasks ran, want {first['tasks']}")
    if sorted(output["csvs"]) != sorted(first["csvs"]):
        raise CheckFailed(f"CSV files {sorted(output['csvs'])}, want {sorted(first['csvs'])}")
    for name, text in output["csvs"].items():
        header, columns = _columns(text)
        ref_columns = [_columns(ref["csvs"][name]) for ref in references.values()]
        if header != ref_columns[0][0]:
            raise CheckFailed(f"{name}: header {header}, want {ref_columns[0][0]}")
        for index, column in enumerate(columns):
            fixed = [ref[1][index] for ref in ref_columns]
            if len(column) != len(fixed[0]):
                raise CheckFailed(f"{name}: {len(column)} rows, want {len(fixed[0])}")
            if all(values == fixed[0] for values in fixed):
                if column != fixed[0]:
                    raise CheckFailed(f"{name}: column {header[index]} differs from the sweep grid")
                continue
            for cell in column:
                value = float(cell)
                if not math.isfinite(value) or value < 0:
                    raise CheckFailed(f"{name}: {header[index]} = {cell}")


# ----------------------------------------------------------------------
# Running one repetition
# ----------------------------------------------------------------------
def run_report(seed: int, out_dir: str) -> None:
    """``report --quick`` on the serial executor into ``out_dir``."""
    from repro.experiments import report

    report.generate(out_dir, scale="quick", seed=seed)


def check_report(output: dict, seed: int, references: dict) -> None:
    refs = references["report_quick"]
    if str(seed) in refs:
        compare_output(
            {"csvs": output["csvs"], "counts": {"tasks": output["tasks"], "failures": output["failures"]}},
            {"csvs": refs[str(seed)]["csvs"], "counts": {"tasks": refs[str(seed)]["tasks"], "failures": 0}},
            f"report_quick seed {seed}",
        )
    else:
        check_report_invariants(output, refs)


def check_scenario(name: str, length: str, seed: int, net, output: dict, references: dict) -> None:
    check_scenario_invariants(net, output)
    want = references[name][length].get(str(seed))
    if want is not None:
        compare_output(output, want, f"{name} ({length}) seed {seed}")


def record_references(out_root: str, path: str = REFERENCE_PATH) -> dict:
    """Re-run every workload on the reference seeds and rewrite ``path``."""
    references: dict = {"report_quick": {}}
    for seed in REFERENCE_SEEDS:
        out_dir = os.path.join(out_root, "report_quick")
        shutil.rmtree(out_dir, ignore_errors=True)
        run_report(seed, out_dir)
        output = report_output(out_dir)
        if output["failures"]:
            raise CheckFailed(f"report_quick seed {seed}: {output['failures']} tasks failed")
        references["report_quick"][str(seed)] = {"csvs": output["csvs"], "tasks": output["tasks"]}
    for name, scenario in SCENARIOS.items():
        references[name] = {}
        for length in LENGTHS:
            references[name][length] = {}
            for seed in REFERENCE_SEEDS:
                net = scenario.build(seed)
                net.run(scenario.sim_s[length])
                output = scenario_output(net)
                check_scenario_invariants(net, output)
                references[name][length][str(seed)] = output
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dumps(references, levels=3) + "\n")
    return references


def _dumps(value, levels: int, indent: int = 0) -> str:
    """JSON with the outer ``levels`` of objects one key a line and
    everything deeper on that key's line, so one seed's recorded output
    is one line of the reference file."""
    if levels == 0 or not isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(key)}: {_dumps(value[key], levels - 1, indent + 1)}"
             for key in sorted(value)]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
