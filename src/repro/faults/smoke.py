"""CI fault-smoke entry point (``python -m repro.faults.smoke``).

Runs a short fault-injected sweep — a location-report outage plus an
ACK-loss burst on the exposed-terminal topology — across a few worker
processes, then asserts the robustness contract end to end:

* every task completed (zero aborts: the manifest's ``failures`` list
  exists and is empty),
* the injected faults actually fired (``faults/`` counters in the
  manifest are non-zero),
* the trace artifact contains the sweep's task events.

Exit status 0 on success, 1 with a diagnostic on any violation.  The
manifest and trace JSONL land in ``--out`` for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.parallel import SweepTask, run_tasks
from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry
from repro.obs.trace_io import dump_jsonl
from repro.sim.trace import global_recorder

#: Faulted node / schedule used by the smoke sweep (also read by tests).
#: The clients are the data transmitters in this topology, so the ACK
#: burst targets a client (ACKs flow AP -> client).
OUTAGE_NODE = "C1"
ACK_NODE = "C2"
FAULT_START_NS = 10_000_000
FAULT_DURATION_NS = 60_000_000


def smoke_task(seed: int = 0, duration_s: float = 0.1) -> dict:
    """One fault-injected exposed-terminal run (module-level: pickles).

    Returns per-flow goodput plus the injector's counters, and merges
    the fault counters into the process-global registry so they survive
    the trip back from a sweep worker into the sweep manifest.
    """
    from repro.experiments.params import testbed_params
    from repro.experiments.topologies import exposed_terminal_topology
    from repro.faults import AckLossBurst, FaultPlan, LocationOutage

    built = exposed_terminal_topology(
        "comap", c2_x=20.0, seed=seed, params=testbed_params()
    )
    net = built.network
    plan = FaultPlan(
        events=(
            LocationOutage(
                node=OUTAGE_NODE,
                start_ns=FAULT_START_NS,
                duration_ns=FAULT_DURATION_NS,
            ),
            AckLossBurst(
                node=ACK_NODE,
                start_ns=FAULT_START_NS,
                duration_ns=FAULT_DURATION_NS,
            ),
        )
    )
    injector = net.install_faults(plan)
    results = net.run(duration_s)
    counters = injector.counters
    registry = global_registry()
    for name, value in sorted(counters.items()):
        if value:
            registry.counter(f"faults/{name}").inc(value)
    return {
        "per_flow_mbps": {
            f"{src}->{dst}": mbps
            for (src, dst), mbps in sorted(results.per_flow_mbps().items())
        },
        "fault_counters": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="fault-artifacts", help="artifact output directory"
    )
    parser.add_argument("--jobs", type=int, default=2, help="sweep worker count")
    parser.add_argument(
        "--duration-s", type=float, default=0.1, help="per-run simulated seconds"
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    recorder = global_recorder()
    recorder.enable("sweep")
    tasks = [
        SweepTask(
            fn=smoke_task,
            kwargs={"seed": seed, "duration_s": args.duration_s},
            key=("fault_smoke", seed),
        )
        for seed in range(4)
    ]
    with obs_manifest.manifest_sink(args.out):
        results = run_tasks(
            tasks, jobs=args.jobs, label="fault_smoke", on_error="record"
        )

    dump_jsonl(
        recorder.events(),
        os.path.join(args.out, "fault_smoke.trace.jsonl"),
        meta={"label": "fault_smoke"},
    )

    problems = []
    if any(result is None for result in results):
        problems.append(f"task aborts: {sum(r is None for r in results)}")

    manifest_path = None
    for name in sorted(os.listdir(args.out)):
        if name.endswith(".manifest.json"):
            manifest_path = os.path.join(args.out, name)
    if manifest_path is None:
        problems.append("no manifest written")
    else:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        obs_manifest.validate_manifest(manifest)
        failures = manifest.get("failures")
        if failures is None:
            problems.append("manifest lacks the failures field")
        elif failures:
            problems.append(f"manifest records {len(failures)} task failures")
        fault_counters = {
            key: value
            for key, value in manifest.get("counters", {}).items()
            if key.startswith("faults/")
        }
        if not fault_counters:
            problems.append("manifest records no faults/ counters")
        elif not any(fault_counters.values()):
            problems.append(f"no fault fired: {fault_counters}")
        else:
            print(f"injected faults recorded in manifest: {fault_counters}")

    for index, result in enumerate(results):
        if result is not None and index == 0:
            print(f"sample result: {json.dumps(result)}")
    if problems:
        for problem in problems:
            print(f"FAULT-SMOKE FAILURE: {problem}", file=sys.stderr)
        return 1
    print(f"fault smoke passed: {len(results)} tasks, artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
