"""City-scale bench — spatial candidate generation vs the culled sweep.

The claim of :mod:`repro.phy.spatial`: with the hash grid, per-frame
cost is O(local density), not O(attached radios).  Channels choose the
grid themselves on floors like this one; the bench forces each side by
patching :func:`repro.phy.spatial.grid_pays_off` (the same seam the
equivalence suites use), so both columns run the same topology.  The
floor here is a long row of 802.11 cells 3 km apart (ns2 power reaches
~1.5 km at the default cull margin, so cross-cell links are all
culled): a fixed *active core* of saturated cells carries the traffic
— and a handful of its clients shuttle around their APs under
:class:`~repro.net.mobility.LinearMobility`, exercising incremental
grid rehashing — while every extra cell only adds idle attached
radios.  Growing N at fixed density therefore holds the simulated
workload constant and isolates exactly the cost the index removes: the
exhaustive culled sweep still *visits* every attached radio per frame,
the grid visits ~9 cells.

Three claims, asserted and written to ``BENCH_scale.json``:

* **bit-identity** — per-node counters are identical with the grid on
  and off at every point of the node series;
* **speedup** — at the largest N the spatial run is >= 5x faster in
  wall time than the spatial-off culled run (``REPRO_SCALE_SPEEDUP_FLOOR``
  trims this for short CI series);
* **sub-linear growth** — the spatial wall time grows far slower than
  the node count across the series (the exhaustive column, recorded
  alongside, shows the O(N) contrast).

Durations and the node series are environment-trimmable so the CI
``scale-smoke`` job can run a short version; the committed JSON comes
from the full defaults.  Not part of tier-1 (``testpaths`` excludes
``benchmarks/``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale_city.py -q -s
"""

import gc
import json
import os
import time
from unittest import mock

from repro.experiments.params import ns2_params
from repro.net.mobility import LinearMobility
from repro.net.network import Network

#: Where the bench drops its machine-readable result.
BENCH_JSON = os.environ.get("REPRO_BENCH_SCALE_JSON", "BENCH_scale.json")

#: Timed simulated seconds per (N, mode) run.
DURATION_S = float(os.environ.get("REPRO_SCALE_DURATION_S", "0.15"))

#: Untimed simulated seconds before each timing window — one-time work
#: (grid build, pair-cache fills, per-link RNG substream seeding)
#: happens here so the timed window measures steady-state frame cost.
WARMUP_S = float(os.environ.get("REPRO_SCALE_WARMUP_S", "0.03"))

#: Node series (comma-separated).  Density is fixed — every point uses
#: the same 5-node cells at the same spacing, only the cell count grows.
NODE_SERIES = tuple(
    int(v) for v in os.environ.get("REPRO_SCALE_NODES", "250,500,1000").split(",")
)

#: Required wall speedup (spatial on vs off) at the series maximum.
#: 5x is the tentpole claim at 1000 nodes; trimmed CI series peak at
#: smaller N where the exhaustive sweep is proportionally cheaper, so
#: the smoke job lowers the floor rather than lying about scale.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SCALE_SPEEDUP_FLOOR", "5.0"))

#: Spatial wall growth across the series must stay under this fraction
#: of linear-in-N growth ("sub-linear", with margin for timer noise).
#: Trimmed CI series on shared runners raise it — short runs at small N
#: leave less signal over scheduler jitter.
SUBLINEAR_FRACTION = float(os.environ.get("REPRO_SCALE_GROWTH_FRACTION", "0.6"))

CLIENTS_PER_CELL = 4
NODES_PER_CELL = CLIENTS_PER_CELL + 1  # + the AP
ACTIVE_CELLS = 8
MOBILE_CLIENTS = 8
SPACING_M = 3_000.0


def _build_city(total_nodes, spatial, seed=17):
    """A row of ``total_nodes // 5`` cells; the first 8 carry traffic.

    The active core is *fixed* — the same 32 saturated uplinks and the
    same 8 looping mobile clients at every N — so the only thing a
    bigger floor adds is attached-but-idle radios, i.e. exactly the
    population the per-frame sweep pays for and the grid does not.
    """
    cells = total_nodes // NODES_PER_CELL
    net = Network(ns2_params(), mac_kind="dcf", seed=seed)
    clients = []
    for i in range(cells):
        cx = i * SPACING_M
        ap = net.add_ap(f"AP{i}", cx, 0.0)
        row = []
        for j in range(CLIENTS_PER_CELL):
            row.append(
                net.add_client(f"C{i}-{j}", cx + 8.0 + 2.0 * j, 5.0, ap=ap)
            )
        clients.append(row)
    # finalize() takes each channel's grid-vs-exhaustive choice.
    with mock.patch(
        "repro.phy.spatial.grid_pays_off", lambda extent_m, reach_m: spatial
    ):
        net.finalize()
    active = min(ACTIVE_CELLS, cells)
    for i in range(active):
        for node in clients[i]:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    movers = []
    for i in range(min(MOBILE_CLIENTS, active)):
        # Client 0 of each active cell shuttles a short strip past its
        # AP (vehicular speed, tight waypoints so ping-pong laps fire
        # even in trimmed CI runs): a transmitting radio that keeps
        # rehashing its grid cell all run long.
        cx = i * SPACING_M
        movers.append(
            LinearMobility(
                net, clients[i][0],
                waypoints=[(cx + 6.0, 5.0), (cx + 10.0, 5.0)],
                speed_mps=30.0, tick_s=0.02, loop=True,
            )
        )
    return net, movers


def _run_point(total_nodes, spatial):
    """One warmed, timed run; returns wall time + observables."""
    net, movers = _build_city(total_nodes, spatial)
    net.run(WARMUP_S)
    gc.collect()
    start = time.perf_counter()
    net.run(WARMUP_S + DURATION_S)
    wall_s = time.perf_counter() - start
    channel = net.channels[0]
    counters = channel.counters()
    per_node = {
        node.name: (
            node.radio.frames_transmitted,
            node.radio.frames_received,
            node.radio.frames_corrupted,
            node.radio.frames_missed,
        )
        for node in net.nodes.values()
    }
    return {
        "nodes": len(net.nodes),
        "wall_s": wall_s,
        "events_fired": net.sim.events_fired,
        "events_per_sec": net.sim.events_fired / wall_s,
        "frames_sent": channel.frames_sent,
        "culled_links": channel.links_culled,
        "spatial_queries": counters["spatial_queries"],
        "spatial_candidates": counters["spatial_candidates"],
        "spatial_skipped": counters["spatial_skipped"],
        # Grid geometry is reported only by a channel that built one.
        "spatial_cells": counters.get("spatial_cells", 0),
        "spatial_cell_size_m": counters.get("spatial_cell_size_m", 0.0),
        "laps_completed": sum(m.laps_completed for m in movers),
        "distance_travelled_m": sum(m.distance_travelled_m for m in movers),
        "per_node": per_node,
    }


def _column(run):
    """The JSON-facing slice of one run (counters sans per_node map)."""
    return {
        "wall_s": round(run["wall_s"], 4),
        "events_fired": run["events_fired"],
        "events_per_sec": round(run["events_per_sec"]),
        "frames_sent": run["frames_sent"],
        "culled_links": run["culled_links"],
        "spatial_queries": run["spatial_queries"],
        "spatial_skipped": run["spatial_skipped"],
        "spatial_cells": run["spatial_cells"],
        "spatial_cell_size_m": round(run["spatial_cell_size_m"], 1),
    }


def test_scale_city_spatial_speedup():
    """Bit-identical physics, >= 5x at max N, sub-linear spatial growth."""
    series = []
    walls_spatial = {}
    for total_nodes in NODE_SERIES:
        spatial = _run_point(total_nodes, spatial=True)
        exhaustive = _run_point(total_nodes, spatial=False)

        # The whole contract: the grid may change *nothing* observable.
        assert spatial["per_node"] == exhaustive["per_node"], (
            f"per-node counters diverged at N={total_nodes}"
        )
        assert spatial["frames_sent"] == exhaustive["frames_sent"]
        assert spatial["culled_links"] == exhaustive["culled_links"]
        # And the grid really ran (vs silently falling back).
        assert spatial["spatial_queries"] > 0
        assert spatial["spatial_skipped"] > 0
        assert exhaustive["spatial_queries"] == 0
        assert spatial["distance_travelled_m"] > 0, "mobility never moved"

        walls_spatial[total_nodes] = spatial["wall_s"]
        speedup = exhaustive["wall_s"] / spatial["wall_s"]
        series.append({
            "nodes": spatial["nodes"],
            "cells": total_nodes // NODES_PER_CELL,
            "spatial_on": _column(spatial),
            "spatial_off": _column(exhaustive),
            "wall_speedup": round(speedup, 2),
            "per_node_counters_identical": True,
        })
        print(f"N={spatial['nodes']:>5}: spatial {spatial['wall_s']:.3f}s "
              f"vs exhaustive {exhaustive['wall_s']:.3f}s "
              f"-> {speedup:.2f}x  (skipped {spatial['spatial_skipped']:,} "
              f"candidate visits)")

    n_min, n_max = min(NODE_SERIES), max(NODE_SERIES)
    top_speedup = series[-1]["wall_speedup"]
    result = {
        "bench": "scale_city",
        "sim_duration_s": DURATION_S,
        "warmup_s": WARMUP_S,
        "spacing_m": SPACING_M,
        "clients_per_cell": CLIENTS_PER_CELL,
        "active_cells": ACTIVE_CELLS,
        "mobile_clients": MOBILE_CLIENTS,
        "node_series": list(NODE_SERIES),
        "series": series,
        "speedup_at_max_nodes": top_speedup,
    }

    growth = None
    if n_max > n_min:
        growth = walls_spatial[n_max] / walls_spatial[n_min]
        linear = n_max / n_min
        result["spatial_wall_growth"] = {
            "nodes_ratio": round(linear, 2),
            "wall_ratio": round(growth, 2),
            "sublinear_ceiling": round(SUBLINEAR_FRACTION * linear, 2),
        }

    with open(BENCH_JSON, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"speedup at N={n_max}: {top_speedup:.2f}x  -> {BENCH_JSON}")

    assert top_speedup >= SPEEDUP_FLOOR, (
        f"spatial speedup {top_speedup:.2f}x at N={n_max} below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    if growth is not None:
        ceiling = SUBLINEAR_FRACTION * (n_max / n_min)
        assert growth < ceiling, (
            f"spatial wall grew {growth:.2f}x from N={n_min} to N={n_max} "
            f"(ceiling {ceiling:.2f}x for sub-linear scaling)"
        )
