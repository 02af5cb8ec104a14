"""CI C-SR smoke entry point (``python -m repro.experiments.csr_smoke``).

Runs the enterprise-floor study (:func:`repro.experiments.runner.run_csr_floor`)
on a small grid — one AP count, a few topology draws, DCF vs CO-MAP vs
C-SR — across worker processes, then asserts the coordination contract end
to end:

* every cell completed and delivered traffic on every flow,
* C-SR aggregate goodput is at least that of plain DCF on every
  topology (the spatial-reuse win the MAC exists for),
* the C-SR cells actually coordinated (non-zero ``csr/`` counters:
  TXOP announcements went out over the backhaul),
* the sweep manifest validates against the manifest schema.

Exit status 0 on success, 1 with a diagnostic on any violation.  The
manifest and result rows land in ``--out`` for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.runner import run_csr_floor
from repro.obs import manifest as obs_manifest

#: Grid used by the smoke sweep (also read by tests).
AP_COUNT = 4
N_TOPOLOGIES = 2
MAC_KINDS = ("dcf", "comap", "csr")
BACKHAUL_LATENCY_NS = 200_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="csr-artifacts", help="artifact output directory"
    )
    parser.add_argument("--jobs", type=int, default=2, help="sweep worker count")
    parser.add_argument(
        "--duration-s", type=float, default=0.2, help="per-run simulated seconds"
    )
    parser.add_argument("--seed", type=int, default=0, help="sweep master seed")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    with obs_manifest.manifest_sink(args.out):
        rows = run_csr_floor(
            mac_kinds=MAC_KINDS,
            ap_counts=(AP_COUNT,),
            backhaul_latencies_ns=(BACKHAUL_LATENCY_NS,),
            error_radii_m=(0.0,),
            n_topologies=N_TOPOLOGIES,
            duration_s=args.duration_s,
            seed=args.seed,
            jobs=args.jobs,
        )

    with open(
        os.path.join(args.out, "csr_smoke.rows.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")

    problems = []
    expected_flows = float(AP_COUNT * 2)  # clients_per_ap default is 2
    by_topology: dict = {}
    for row in rows:
        by_topology.setdefault(row["topology"], {})[row["mac"]] = row
        if row["flows_with_deliveries"] < expected_flows:
            problems.append(
                f"{row['mac']} topology {row['topology']}: only "
                f"{row['flows_with_deliveries']:.0f}/{expected_flows:.0f} "
                f"flows delivered"
            )

    for topo, cells in sorted(by_topology.items()):
        missing = [kind for kind in MAC_KINDS if kind not in cells]
        if missing:
            problems.append(f"topology {topo}: missing cells for {missing}")
            continue
        dcf = cells["dcf"]["goodput_mbps"]
        csr = cells["csr"]["goodput_mbps"]
        print(
            f"topology {topo}: dcf={dcf:.2f} Mbps "
            f"comap={cells['comap']['goodput_mbps']:.2f} Mbps "
            f"csr={csr:.2f} Mbps "
            f"(p99 worst: dcf={cells['dcf']['p99_ms_worst']:.1f} ms, "
            f"csr={cells['csr']['p99_ms_worst']:.1f} ms)"
        )
        if csr < dcf:
            problems.append(
                f"topology {topo}: C-SR goodput {csr:.2f} Mbps below "
                f"DCF {dcf:.2f} Mbps"
            )
        if not cells["csr"].get("csr/txop_announced"):
            problems.append(f"topology {topo}: C-SR never announced a TXOP")
        if not cells["csr"].get("csr/backhaul_messages"):
            problems.append(
                f"topology {topo}: no backhaul messages — coordination "
                f"plane never engaged"
            )

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
        if failures:
            problems.append(f"manifest records {len(failures)} task failures")

    if problems:
        for problem in problems:
            print(f"CSR-SMOKE FAILURE: {problem}", file=sys.stderr)
        return 1
    print(f"csr smoke passed: {len(rows)} cells, artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
