"""Micro-benchmark — raw event-engine and simulator throughput.

Not a paper figure: tracks the substrate's performance so regressions in
the hot path (event loop, channel notifications, DCF state machine) are
visible.  The micro-benches use pytest-benchmark conventionally (many
rounds); the large-topology cull bench times one run per culling mode,
asserts the two modes agree node for node, and writes the measured
throughput to ``BENCH_engine.json`` (CI uploads it as an artifact).
"""

import gc
import json
import os
import time

from repro.experiments.params import ns2_params
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.util.hotpath import set_hotpath

#: Where the cull bench drops its machine-readable result.
BENCH_JSON = os.environ.get("REPRO_BENCH_ENGINE_JSON", "BENCH_engine.json")

#: Where the hot-path bench drops its machine-readable result.
BENCH_HOTPATH_JSON = os.environ.get(
    "REPRO_BENCH_HOTPATH_JSON", "BENCH_hotpath.json"
)

#: Simulated seconds per hot-path bench round.  Long enough that the
#: per-frame work dominates the one-time setup both modes share (420
#: per-link RNG substreams take ~15 ms to derive and seed, which would
#: otherwise dilute the measured ratio) and that one round dwarfs
#: scheduler jitter on a single-CPU runner.
DENSE_DURATION_S = 0.3

def test_engine_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = 10_000

        def chain(n):
            if n > 0:
                sim.schedule(10, chain, n - 1)

        sim.schedule(0, chain, count)
        sim.run()
        return sim.events_fired

    fired = benchmark(run_events)
    assert fired == 10_001


def test_saturated_cell_simulation_speed(benchmark):
    def run_cell():
        net = Network(ns2_params(), seed=0)
        ap = net.add_ap("AP", 0, 0)
        clients = [net.add_client(f"C{i}", 10 + i, 0, ap=ap) for i in range(4)]
        net.finalize()
        for c in clients:
            net.add_saturated(c, ap)
        results = net.run(0.2)
        return results.aggregate_goodput_bps

    goodput = benchmark.pedantic(run_cell, rounds=3, iterations=1)
    assert goodput > 1e6


# ----------------------------------------------------------------------
# Below-floor culling on a sparse multi-cell floor
# ----------------------------------------------------------------------
def _build_sparse_floor(cull_margin_db, cells=24, clients_per_cell=4,
                        spacing_m=4_000.0, seed=9):
    """``cells`` saturated BSSes strung out ``spacing_m`` apart.

    At ns2 power (20 dBm, alpha 3.3, sigma 5) the default 30 dB culling
    margin reaches ~1.5 km, so every cross-cell link is culled while
    in-cell physics is untouched — the regime the optimisation targets:
    a building-scale deployment where most radio pairs can never hear
    each other.
    """
    params = ns2_params().with_overrides(cull_margin_db=cull_margin_db)
    net = Network(params, mac_kind="dcf", seed=seed)
    for i in range(cells):
        cx = i * spacing_m
        ap = net.add_ap(f"AP{i}", cx, 0.0)
        for j in range(clients_per_cell):
            net.add_client(f"C{i}-{j}", cx + 8.0 + 2.0 * j, 5.0, ap=ap)
    net.finalize()
    for node in list(net.nodes.values()):
        if not node.is_ap:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    return net


def _run_mode(cull_margin_db, duration_s):
    net = _build_sparse_floor(cull_margin_db)
    start = time.perf_counter()
    net.run(duration_s)
    wall_s = time.perf_counter() - start
    channel = net.channels[0]
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
        "heap_peak": net.sim.heap_peak,
        "heap_compactions": net.sim.heap_compactions,
        "frames_sent": channel.frames_sent,
        "culled_links": channel.links_culled,
        "per_node": per_node,
    }


def test_cull_throughput_large_topology(benchmark):
    """Culling-on must beat culling-off by >= 20 % events/sec, identically.

    Pinned to the uncoalesced path: the default hot path delivers all of
    a frame's receivers in one event, which hides culling's per-receiver
    event economy.  The culled run is otherwise the default path, so on
    this 92 km floor its channel also chooses the hash grid
    (:func:`repro.phy.spatial.grid_pays_off`); the exhaustive run cannot,
    having no cull margin to bound a reach radius.
    """
    duration_s = 0.05

    def run_both():
        set_hotpath(False)
        try:
            return _run_mode(None, duration_s), _run_mode("off", duration_s)
        finally:
            set_hotpath(None)

    culled, exhaustive = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert culled["nodes"] >= 100

    # Identical physics: every node transmitted/received/corrupted/missed
    # exactly the same frames in both modes.
    assert culled["per_node"] == exhaustive["per_node"]
    assert culled["frames_sent"] == exhaustive["frames_sent"]
    assert exhaustive["culled_links"] == 0 and culled["culled_links"] > 0

    # Fraction of per-frame receiver notifications skipped by culling.
    notifiable = culled["frames_sent"] * (culled["nodes"] - 1)
    culled_fraction = culled["culled_links"] / notifiable

    # Same simulated workload in far fewer events; for a fixed simulated
    # duration the wall-clock ratio IS the throughput improvement.
    assert culled["events_fired"] < exhaustive["events_fired"]
    speedup = exhaustive["wall_s"] / culled["wall_s"]

    result = {
        "bench": "engine_cull_throughput",
        "nodes": culled["nodes"],
        "sim_duration_s": duration_s,
        "frames_sent": culled["frames_sent"],
        "culled_link_fraction": round(culled_fraction, 4),
        "cull_on": {
            "wall_s": round(culled["wall_s"], 4),
            "events_fired": culled["events_fired"],
            "events_per_sec": round(culled["events_per_sec"]),
            "heap_peak": culled["heap_peak"],
        },
        "cull_off": {
            "wall_s": round(exhaustive["wall_s"], 4),
            "events_fired": exhaustive["events_fired"],
            "events_per_sec": round(exhaustive["events_per_sec"]),
            "heap_peak": exhaustive["heap_peak"],
        },
        "wall_speedup": round(speedup, 2),
        "per_node_counters_identical": True,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print()
    print(f"cull on : {culled['events_fired']:>9} events in "
          f"{culled['wall_s']:.3f}s ({culled['events_per_sec']:,.0f} ev/s)")
    print(f"cull off: {exhaustive['events_fired']:>9} events in "
          f"{exhaustive['wall_s']:.3f}s ({exhaustive['events_per_sec']:,.0f} ev/s)")
    print(f"culled-link fraction: {culled_fraction:.1%}  "
          f"wall speedup: {speedup:.2f}x  -> {BENCH_JSON}")
    assert speedup >= 1.2, f"culling speedup {speedup:.2f}x below the 20% floor"


# ----------------------------------------------------------------------
# The frame hot path on a dense cell (culling off: nothing to skip)
# ----------------------------------------------------------------------
def _build_dense_cell(clients=20, seed=11):
    """One saturated BSS where every radio hears every frame.

    Culling is forced off, so each transmission notifies all other
    radios — the regime where the hot path's per-frame savings (cached
    linear-domain mean powers, single-multiply shadowing composition,
    memoized airtimes and rate constants, energy-sum memo) are the whole
    story, as on the paper's dense Fig. 8 / Fig. 10 floors.
    """
    params = ns2_params().with_overrides(cull_margin_db="off")
    net = Network(params, mac_kind="dcf", seed=seed)
    ap = net.add_ap("AP", 0.0, 0.0)
    for i in range(clients):
        net.add_client(f"C{i}", 5.0 + 0.5 * i, 5.0, ap=ap)
    net.finalize()
    for node in list(net.nodes.values()):
        if not node.is_ap:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    return net


def _time_hotpath_round(enabled):
    """One timed dense-cell run with the hot path pinned on or off."""
    set_hotpath(enabled)
    net = _build_dense_cell()
    gc.collect()
    start = time.perf_counter()
    net.run(DENSE_DURATION_S)
    wall_s = time.perf_counter() - start
    snapshot = {
        "nodes": len(net.nodes),
        "events_fired": net.sim.events_fired,
        "heap_peak": net.sim.heap_peak,
        "heap_compactions": net.sim.heap_compactions,
        "frames_sent": net.channels[0].frames_sent,
        "per_node": {
            node.name: (
                node.radio.frames_transmitted,
                node.radio.frames_received,
                node.radio.frames_corrupted,
                node.radio.frames_missed,
            )
            for node in net.nodes.values()
        },
    }
    return wall_s, snapshot


def _run_hotpath_modes(duration_s, rounds=3):
    """Min-of-``rounds`` wall time per mode, rounds interleaved.

    Interleaving (on, off, on, off, ...) instead of timing one mode's
    block after the other keeps slow machine-level drift — cache state,
    GC pressure from earlier benches, CPU frequency — from landing on
    one mode only and skewing the ratio.
    """
    assert duration_s == DENSE_DURATION_S
    best = {True: None, False: None}
    snapshots = {True: None, False: None}
    try:
        for _ in range(rounds):
            for enabled in (True, False):
                wall_s, snapshot = _time_hotpath_round(enabled)
                if best[enabled] is None or wall_s < best[enabled]:
                    best[enabled] = wall_s
                if snapshots[enabled] is None:  # deterministic per mode
                    snapshots[enabled] = snapshot
    finally:
        set_hotpath(None)  # defer to the environment again
    for enabled in (True, False):
        snapshots[enabled]["wall_s"] = best[enabled]
        snapshots[enabled]["events_per_sec"] = (
            snapshots[enabled]["events_fired"] / best[enabled]
        )
    return snapshots[True], snapshots[False]


def test_hotpath_throughput_dense(benchmark):
    """The cached hot path must beat full re-derivation by >= 1.3x.

    ``REPRO_HOTPATH=off`` re-derives distance, log-domain path loss, and
    every dBm->mW conversion per link per frame, and schedules one air
    notification per receiver; the default path reuses the cached
    linear-domain values and coalesces each frame's notifications into
    one delivery event.  Same physics either way — per-node counters are
    asserted bit-identical — so for a fixed simulated duration the
    min-of-3 wall-clock ratio is the speedup.
    """
    duration_s = DENSE_DURATION_S

    def run_both():
        return _run_hotpath_modes(duration_s)

    on, off = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # Identical physics: caching may never change a single outcome.
    # Coalesced air notifications mean strictly fewer engine events for
    # the same frames.
    assert on["per_node"] == off["per_node"]
    assert on["events_fired"] < off["events_fired"]
    assert on["frames_sent"] == off["frames_sent"]

    speedup = off["wall_s"] / on["wall_s"]
    result = {
        "bench": "engine_hotpath_throughput",
        "nodes": on["nodes"],
        "sim_duration_s": duration_s,
        "frames_sent": on["frames_sent"],
        "hotpath_on": {
            "wall_s": round(on["wall_s"], 4),
            "events_fired": on["events_fired"],
            "events_per_sec": round(on["events_per_sec"]),
            "heap_peak": on["heap_peak"],
            "heap_compactions": on["heap_compactions"],
        },
        "hotpath_off": {
            "wall_s": round(off["wall_s"], 4),
            "events_fired": off["events_fired"],
            "events_per_sec": round(off["events_per_sec"]),
            "heap_peak": off["heap_peak"],
            "heap_compactions": off["heap_compactions"],
        },
        "wall_speedup": round(speedup, 2),
        "per_node_counters_identical": True,
    }
    with open(BENCH_HOTPATH_JSON, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print()
    print(f"hotpath on : {on['events_fired']:>9} events in "
          f"{on['wall_s']:.3f}s ({on['events_per_sec']:,.0f} ev/s)")
    print(f"hotpath off: {off['events_fired']:>9} events in "
          f"{off['wall_s']:.3f}s ({off['events_per_sec']:,.0f} ev/s)")
    print(f"wall speedup: {speedup:.2f}x  -> {BENCH_HOTPATH_JSON}")
    assert speedup >= 1.3, f"hot-path speedup {speedup:.2f}x below the 1.3x floor"


# ----------------------------------------------------------------------
# C-SR floor column
# ----------------------------------------------------------------------

#: Simulated seconds per C-SR floor cell; enough for queues to reach
#: their regime (DCF's to overflow, C-SR's to drain) on the 4-AP floor.
CSR_DURATION_S = 0.2


def _run_csr_floor_cells():
    """One 4-AP enterprise-floor cell per MAC kind (paired seeds)."""
    from repro.experiments.runner import _csr_floor_cell

    cells = {}
    for mac_kind in ("dcf", "comap", "csr"):
        cells[mac_kind] = _csr_floor_cell(
            mac_kind=mac_kind,
            n_aps=4,
            clients_per_ap=2,
            backhaul_latency_ns=200_000,
            error_radius_m=0.0,
            topology_seed=2000,
            seed=0,
            duration_s=CSR_DURATION_S,
        )
    return cells


def test_csr_floor_coordination(benchmark):
    """C-SR must beat DCF on the enterprise floor, goodput AND p99.

    The coordination claim of ``repro.mac.csr``: with per-cell CBR
    load that overflows the serialized collision domain, DCF queues
    blow up while C-SR's coordinated concurrent TXOPs drain the same
    load — more aggregate goodput at a fraction of the tail latency.

    The result is appended as a ``csr`` column to the same
    ``BENCH_engine.json`` the cull bench writes
    (read-modify-write, so test order and partial runs don't drop
    columns).
    """
    cells = benchmark.pedantic(_run_csr_floor_cells, rounds=1, iterations=1)
    dcf, csr = cells["dcf"], cells["csr"]

    goodput_ratio = csr["goodput_mbps"] / dcf["goodput_mbps"]
    column = {
        "ap_count": 4,
        "clients_per_ap": 2,
        "sim_duration_s": CSR_DURATION_S,
        "backhaul_latency_ns": 200_000,
        "goodput_mbps": {
            kind: round(cell["goodput_mbps"], 3)
            for kind, cell in cells.items()
        },
        "p99_ms_worst": {
            kind: round(cell["p99_ms_worst"], 2)
            for kind, cell in cells.items()
        },
        "goodput_ratio_csr_vs_dcf": round(goodput_ratio, 2),
        "txop_announced": cells["csr"].get("csr/txop_announced", 0),
        "concurrent_granted": cells["csr"].get("csr/concurrent_granted", 0),
        "power_capped_tx": cells["csr"].get("csr/power_capped_tx", 0),
    }
    try:
        with open(BENCH_JSON, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (FileNotFoundError, ValueError):
        result = {}
    result["csr"] = column
    with open(BENCH_JSON, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print()
    for kind in ("dcf", "comap", "csr"):
        cell = cells[kind]
        print(f"{kind:>5}: {cell['goodput_mbps']:6.2f} Mbps aggregate, "
              f"worst-flow p99 {cell['p99_ms_worst']:6.1f} ms")
    print(f"goodput ratio csr/dcf: {goodput_ratio:.2f}x -> "
          f"{BENCH_JSON} (csr column)")
    assert goodput_ratio >= 1.3, (
        f"C-SR goodput {goodput_ratio:.2f}x DCF, below the 1.3x floor"
    )
    assert csr["p99_ms_worst"] < dcf["p99_ms_worst"], (
        f"C-SR p99 {csr['p99_ms_worst']:.1f} ms not better than "
        f"DCF {dcf['p99_ms_worst']:.1f} ms"
    )
