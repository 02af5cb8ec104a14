"""C-SR differential equivalence: coordination must cost nothing when idle.

The C-SR MAC (:class:`repro.mac.csr.CsrMac`) rides on top of CO-MAP and
adds a wired coordination plane.  The contract mirrors the faults
layer's (``tests/test_faults_equivalence.py``): whenever the
coordination set is empty — a single AP (no peers to coordinate with)
or a disabled backhaul (``csr_backhaul_latency_ns=None``) — a "csr"
network must be *bit-identical* to plain CO-MAP: per-node physics
counters, per-flow goodput, the full counter snapshot (modulo the
all-zero ``csr/`` namespace), and even the engine's event count.

A second suite pins mode-independence: the same C-SR floor must agree
on physics counters across the whole execution-mode matrix
(``REPRO_HOTPATH`` x grid-vs-exhaustive sweep x ``cull_margin_db``),
and the sweep runner must be bit-identical across serial, pooled, and
queue-resume execution.
"""

import os

import pytest

from repro.experiments.params import ns2_params
from repro.experiments.parallel import SweepTask, run_tasks
from repro.experiments.runner import _csr_floor_cell, run_csr_floor
from repro.experiments.topologies import enterprise_floor_topology
from repro.util.hotpath import hotpath_forced

from tests.conftest import grid_forced
from tests.goldens import node_counters

BACKHAUL_NS = 200_000


def _floor(mac_kind, n_aps, backhaul_latency_ns=None, seed=7, cull=None):
    params = ns2_params().with_overrides(
        csr_backhaul_latency_ns=backhaul_latency_ns, cull_margin_db=cull
    )
    return enterprise_floor_topology(
        mac_kind, topology_seed=11, seed=seed, params=params, n_aps=n_aps
    )


def _strip_csr(snapshot):
    """Split a counter snapshot into (non-csr part, csr/ part)."""
    csr = {k: v for k, v in snapshot.items() if k.startswith("csr/")}
    rest = {k: v for k, v in snapshot.items() if not k.startswith("csr/")}
    return rest, csr


def _run_pair(mac_a, mac_b, n_aps, latency_a=None, latency_b=None,
              duration_s=0.1):
    built_a = _floor(mac_a, n_aps, latency_a)
    res_a = built_a.network.run(duration_s)
    built_b = _floor(mac_b, n_aps, latency_b)
    res_b = built_b.network.run(duration_s)
    return built_a.network, res_a, built_b.network, res_b


class TestEmptyCoordinationEquivalence:
    def _assert_identical(self, comap_net, comap_res, csr_net, csr_res):
        assert node_counters(comap_net) == node_counters(csr_net)
        assert comap_res.per_flow_mbps() == csr_res.per_flow_mbps()
        csr_rest, csr_keys = _strip_csr(csr_net.counters())
        comap_rest, comap_csr_keys = _strip_csr(comap_net.counters())
        # CO-MAP networks never carry the csr/ namespace...
        assert not comap_csr_keys
        # ...C-SR networks always do, but with nothing counted when the
        # coordination set is empty.
        assert csr_keys
        assert not any(csr_keys.values())
        assert comap_rest == csr_rest
        assert comap_net.sim.events_fired == csr_net.sim.events_fired

    def test_single_ap_with_backhaul_enabled(self):
        # One AP: the backhaul exists but publish() finds no peers, so
        # no message events are ever scheduled.
        comap_net, comap_res, csr_net, csr_res = _run_pair(
            "comap", "csr", n_aps=1, latency_b=BACKHAUL_NS
        )
        assert csr_net.backhaul is not None
        self._assert_identical(comap_net, comap_res, csr_net, csr_res)

    def test_multi_ap_with_backhaul_disabled(self):
        # Four APs but csr_backhaul_latency_ns=None: no backhaul is
        # wired, so CsrMac never takes a C-SR branch.
        comap_net, comap_res, csr_net, csr_res = _run_pair(
            "comap", "csr", n_aps=4, latency_b=None
        )
        assert csr_net.backhaul is None
        self._assert_identical(comap_net, comap_res, csr_net, csr_res)

    def test_coordination_actually_diverges_when_enabled(self):
        # Sanity check on the suite itself: with peers AND a backhaul
        # the coordination plane engages and counters move.  Without
        # this, the two tests above would pass trivially if C-SR were
        # accidentally inert everywhere.
        built = _floor("csr", n_aps=4, backhaul_latency_ns=BACKHAUL_NS)
        built.network.run(0.1)
        counters = built.network.counters()
        assert counters["csr/txop_announced"] > 0
        assert counters["csr/backhaul_messages"] > 0
        assert counters["csr/coordination_rounds"] > 0


class TestKnobMatrixAgreement:
    """Physics counters agree across the execution-mode matrix."""

    DURATION_S = 0.08

    def _physics(self, hotpath, grid, cull):
        with hotpath_forced(hotpath), grid_forced(grid):
            built = _floor(
                "csr", n_aps=4, backhaul_latency_ns=BACKHAUL_NS, cull=cull
            )
            results = built.network.run(self.DURATION_S)
        return node_counters(built.network), results.per_flow_mbps()

    def test_modes_agree_on_physics(self):
        # The default floor keeps the exhaustive sweep (grid=False).
        baseline = self._physics(hotpath=True, grid=False, cull=None)
        for hotpath in (True, False):
            for grid in (True, False):
                for cull in (None, "off"):
                    if (hotpath, grid, cull) == (True, False, None):
                        continue
                    variant = self._physics(hotpath, grid, cull)
                    assert variant == baseline, (
                        f"hotpath={hotpath} grid={grid} cull={cull} "
                        f"diverged from the default mode"
                    )


@pytest.mark.slow
class TestExecutorBitIdentity:
    """run_csr_floor is bit-identical across execution strategies."""

    KW = dict(
        mac_kinds=("dcf", "comap", "csr"),
        ap_counts=(2,),
        backhaul_latencies_ns=(BACKHAUL_NS,),
        error_radii_m=(0.0,),
        n_topologies=1,
        duration_s=0.05,
        seed=3,
    )

    def test_serial_vs_pool(self):
        serial = run_csr_floor(jobs=1, **self.KW)
        pooled = run_csr_floor(jobs=2, **self.KW)
        assert serial == pooled

    def test_serial_vs_queue_resume(self, tmp_path):
        from repro.experiments.queue import (
            queue_results,
            resume,
            shard_tasks,
        )

        tasks = [
            SweepTask(
                fn=_csr_floor_cell,
                kwargs=dict(
                    mac_kind=mac_kind,
                    n_aps=2,
                    clients_per_ap=2,
                    backhaul_latency_ns=BACKHAUL_NS,
                    error_radius_m=0.0,
                    topology_seed=2000,
                    seed=42,
                    duration_s=0.05,
                ),
                key=("csr_floor_queue", mac_kind),
            )
            for mac_kind in ("dcf", "comap", "csr")
        ]
        serial = run_tasks(tasks, jobs=1, label="csr_queue")
        qdir = str(tmp_path / "queue")
        shard_tasks(tasks, qdir, chunk=1, label="csr_queue")
        resume(qdir, lease_ttl_s=5.0)
        assert queue_results(qdir) == serial
