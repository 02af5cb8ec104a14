"""The hash-grid spatial index and its channel integration.

Covers the spatial candidate-generation tentpole:

* :class:`repro.phy.spatial.SpatialIndex` unit behavior — membership
  errors, empty-cell cleanup, degenerate huge-radius queries;
* hypothesis properties: grid membership after arbitrary
  attach/move/detach sequences equals brute-force recomputation, and
  ``query_disk`` always returns a superset of the true in-disk members;
* reach-radius soundness: no radio outside the query disk can survive
  the exact cull test, across alpha / tx power / margin / threshold
  (the analytical property) and end-to-end on randomized topologies
  (identical ``rx_power_mw`` maps with the grid on and off);
* the O(1) detach (satellite): removal preserves attach iteration
  order, re-attach appends;
* copy discipline (satellite): ``Channel.radios`` copies,
  ``radios_view`` does not;
* candidate ordering, the ``spatial_*`` counters, margin-off inertness,
  and the manifest ``spatial`` block;
* the grid-vs-exhaustive choice itself (:func:`grid_pays_off`), unit
  and end to end on a row-of-cells floor and the Fig. 8 floor.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.params import ns2_params
from repro.net.network import Network
from repro.obs.counters import CounterRegistry
from repro.obs.manifest import RunManifest, build_manifest, validate_manifest
from repro.phy.propagation import REACH_RADIUS_SLACK, LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.phy.spatial import (
    GRID_MIN_EXTENT_REACHES,
    SpatialIndex,
    grid_pays_off,
    record_grid_built,
    record_reach_radius,
    reset_spatial_stats,
    spatial_manifest_block,
)
from repro.util.geometry import Point

from tests.conftest import StubMac, build_phy_world
from tests.goldens import run_scenario

NEAR = (0.0, 0.0)
MID = (10.0, 0.0)
FAR = (5_000.0, 0.0)


# ----------------------------------------------------------------------
# SpatialIndex unit behavior
# ----------------------------------------------------------------------
class TestSpatialIndex:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            SpatialIndex(0.0)
        with pytest.raises(ValueError):
            SpatialIndex(-5.0)

    def test_add_remove_membership(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 3.0, 4.0)
        grid.add(2, -3.0, 4.0)
        assert len(grid) == 2
        assert 1 in grid and 2 in grid
        assert grid.cell_count == 2  # negative x floors into its own cell
        grid.remove(1)
        assert 1 not in grid
        assert grid.cell_count == 1

    def test_double_add_and_unknown_remove_fail_loudly(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            grid.add(1, 5.0, 5.0)
        with pytest.raises(ValueError):
            grid.remove(99)
        with pytest.raises(ValueError):
            grid.move(99, 0.0, 0.0)

    def test_empty_cells_are_dropped(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 5.0, 5.0)
        grid.move(1, 95.0, 5.0)
        assert grid.cell_count == 1
        grid.remove(1)
        assert grid.cell_count == 0
        assert grid.occupancy() == []

    def test_query_disk_superset_and_exclusion(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 0.0, 0.0)
        grid.add(2, 25.0, 0.0)
        grid.add(3, 500.0, 500.0)
        near = grid.query_disk(0.0, 0.0, 30.0)
        assert set(near) >= {1, 2}
        assert 3 not in near

    def test_huge_radius_iterates_nonempty_cells(self):
        # A query box of ~10^16 cells must not cost O(box area).
        grid = SpatialIndex(1.0)
        grid.add(1, 0.0, 0.0)
        grid.add(2, 1e8, 1e8)
        out = grid.query_disk(0.0, 0.0, 1e9)
        assert sorted(out) == [1, 2]


# ----------------------------------------------------------------------
# Hypothesis: grid == brute force under arbitrary mutation sequences
# ----------------------------------------------------------------------
coord = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
ops_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), coord, coord),
    min_size=1,
    max_size=60,
)


class TestGridProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy, st.floats(min_value=0.5, max_value=500.0))
    def test_membership_matches_brute_force(self, ops, cell):
        grid = SpatialIndex(cell)
        truth = {}
        for member, x, y in ops:
            if member in truth:
                # Alternate move/remove by parity of the count so both
                # paths are exercised against the oracle.
                if (x > y) == (member % 2 == 0):
                    grid.move(member, x, y)
                    truth[member] = (x, y)
                else:
                    grid.remove(member)
                    del truth[member]
            else:
                grid.add(member, x, y)
                truth[member] = (x, y)
        assert len(grid) == len(truth)
        cells = grid.members()
        assert set(cells) == set(truth)
        for member, (x, y) in truth.items():
            assert cells[member] == (
                math.floor(x / cell),
                math.floor(y / cell),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.tuples(coord, coord),
        st.floats(min_value=0.0, max_value=2e4),
        st.floats(min_value=0.5, max_value=500.0),
    )
    def test_query_disk_is_superset_of_disk(self, points, center, radius, cell):
        grid = SpatialIndex(cell)
        for i, (x, y) in enumerate(points):
            grid.add(i, x, y)
        cx, cy = center
        hits = set(grid.query_disk(cx, cy, radius))
        for i, (x, y) in enumerate(points):
            if math.hypot(x - cx, y - cy) <= radius:
                assert i in hits  # never misses a true in-disk member
        assert hits <= set(range(len(points)))  # never invents members


# ----------------------------------------------------------------------
# Reach-radius soundness
# ----------------------------------------------------------------------
class TestReachRadius:
    def test_rejects_negative_margin(self):
        prop = LogNormalShadowing(alpha=3.3, sigma_db=0.0)
        with pytest.raises(ValueError):
            prop.reach_radius_m(20.0, -80.0, -1.0)

    def test_floors_at_reference_distance(self):
        # A threshold above the strongest possible mean culls everyone;
        # the radius still stays a valid (positive) query disk.
        prop = LogNormalShadowing(alpha=3.3, sigma_db=0.0)
        radius = prop.reach_radius_m(0.0, 50.0, 0.0)
        assert radius >= prop.reference_distance_m
        assert radius == pytest.approx(
            prop.reference_distance_m * (1.0 + REACH_RADIUS_SLACK)
        )

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(min_value=2.0, max_value=4.5),
        st.floats(min_value=-10.0, max_value=30.0),
        st.floats(min_value=-100.0, max_value=-60.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_no_survivor_beyond_radius(self, alpha, tx, threshold, margin, overshoot):
        # The analytical core of the equivalence proof: at any distance
        # strictly beyond the reach radius the mean power (the cull
        # test's input — shadowing is additive and symmetric around it)
        # sits more than ``margin`` below the threshold, so the exact
        # scalar test `mean + margin >= threshold` must fail.
        prop = LogNormalShadowing(alpha=alpha, sigma_db=0.0)
        radius = prop.reach_radius_m(tx, threshold, margin)
        d = radius * (1.0 + overshoot)
        assert prop.mean_rx_dbm(tx, d) + margin < threshold

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8_000.0),
                st.floats(min_value=0.0, max_value=8_000.0),
            ),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=30.0),
    )
    def test_grid_never_loses_a_survivor(self, positions, margin):
        # End-to-end soundness on randomized sparse topologies: the set
        # of receivers that hear a frame (and the per-link powers, and
        # the culled count) is identical with the grid on and off.
        runs = {}
        for spatial in (False, True):
            world = build_phy_world(
                positions, cull_margin_db=margin, spatial=spatial
            )
            tx = world.radios[0].start_transmission(world.data_frame(0, 1))
            world.sim.run()
            runs[spatial] = (dict(tx.rx_power_mw), world.channel.links_culled)
        assert runs[True] == runs[False]


# ----------------------------------------------------------------------
# O(1) detach + iteration-order regression (satellite)
# ----------------------------------------------------------------------
class TestDetachOrder:
    def test_detach_preserves_attach_order(self):
        world = build_phy_world([NEAR, MID, (20.0, 0.0), (30.0, 0.0)])
        channel = world.channel
        assert [r.radio_id for r in channel.radios] == [0, 1, 2, 3]
        channel.detach(world.radios[1])
        assert [r.radio_id for r in channel.radios] == [0, 2, 3]
        channel.detach(world.radios[3])
        assert [r.radio_id for r in channel.radios] == [0, 2]

    def test_reattach_appends_at_end(self):
        world = build_phy_world([NEAR, MID, (20.0, 0.0)])
        channel = world.channel
        channel.detach(world.radios[0])
        channel.attach(world.radios[0])
        assert [r.radio_id for r in channel.radios] == [1, 2, 0]

    def test_detach_keeps_grid_consistent(self):
        world = build_phy_world([NEAR, MID, FAR], spatial=True)
        grid = world.channel.prepare_spatial()
        assert len(grid) == 3
        world.channel.detach(world.radios[2])
        assert len(grid) == 2
        assert 2 not in grid


# ----------------------------------------------------------------------
# Copy discipline (satellite): radios copies, radios_view does not
# ----------------------------------------------------------------------
class TestRadiosAccessors:
    def test_radios_property_copies(self):
        world = build_phy_world([NEAR, MID])
        snapshot = world.channel.radios
        assert snapshot is not world.channel.radios  # fresh list per call
        world.channel.detach(world.radios[1])
        assert len(snapshot) == 2  # caller's copy unaffected

    def test_radios_view_is_live(self):
        world = build_phy_world([NEAR, MID])
        view = world.channel.radios_view()
        assert len(view) == 2
        world.channel.detach(world.radios[1])
        assert len(view) == 1  # same underlying dict, no copy
        assert world.channel.radio_count == 1


# ----------------------------------------------------------------------
# Channel integration: candidates, counters, gating
# ----------------------------------------------------------------------
class TestChannelSpatial:
    def test_candidates_in_attach_order(self):
        world = build_phy_world(
            [NEAR, (30.0, 0.0), (20.0, 0.0), (10.0, 0.0)], spatial=True
        )
        channel = world.channel
        channel.detach(world.radios[1])
        channel.attach(world.radios[1])  # now last in attach order
        got = channel._spatial_candidates(world.radios[0])
        assert [r.radio_id for r in got] == [2, 3, 1]

    def test_counters_tick_and_culled_identity(self):
        spatial = build_phy_world([NEAR, MID, FAR], spatial=True)
        spatial.radios[0].start_transmission(spatial.data_frame(0, 1))
        spatial.sim.run()
        exhaustive = build_phy_world([NEAR, MID, FAR], spatial=False)
        exhaustive.radios[0].start_transmission(exhaustive.data_frame(0, 1))
        exhaustive.sim.run()
        counters = spatial.channel.counters()
        assert counters["spatial_queries"] == 1
        assert counters["spatial_candidates"] == 1  # FAR never visited
        assert counters["spatial_skipped"] == 1
        assert counters["spatial_cells"] >= 1
        assert counters["spatial_cell_size_m"] > 0.0
        # The grid-skipped radio is still charged as a culled link, so
        # the equivalence-checked counter matches the exhaustive path.
        assert counters["culled_links"] == exhaustive.channel.links_culled == 1

    def test_inert_without_cull_margin(self):
        # The grid's soundness argument *is* the cull test; without a
        # margin there is nothing sound to skip, so even a forced
        # choice keeps the exhaustive sweep.
        world = build_phy_world([NEAR, MID, FAR], cull_margin_db="off", spatial=True)
        assert world.channel.spatial_grid is None
        assert world.channel.prepare_spatial() is None
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert set(tx.rx_power_mw) == {1, 2}
        assert world.channel.counters()["spatial_queries"] == 0

    def test_prepare_spatial_idempotent(self):
        world = build_phy_world([NEAR, MID], spatial=True)
        grid = world.channel.prepare_spatial()
        assert grid is not None
        assert world.channel.prepare_spatial() is grid
        assert world.channel.spatial_grid is grid

    def test_move_rehashes_and_uncults(self):
        world = build_phy_world([NEAR, MID, FAR], spatial=True)
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        world.radios[2].move_to(Point(20.0, 0.0))
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 2 in tx.rx_power_mw

    def test_midrun_attach_joins_grid(self):
        world = build_phy_world([NEAR, MID], spatial=True)
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        late = Radio(
            radio_id=99,
            position=Point(5.0, 0.0),
            config=RadioConfig(tx_power_dbm=20.0, cs_threshold_dbm=-80.0),
            channel=world.channel,
        )
        late.bind_mac(StubMac())
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 99 in tx.rx_power_mw

    def test_occupancy_histogram_recorded(self):
        registry = CounterRegistry()
        world = build_phy_world([NEAR, MID, FAR], spatial=True)
        world.channel.register_counters(registry)
        world.channel.prepare_spatial()
        world.channel.record_spatial_occupancy()
        histogram = registry.histogram("channel/spatial_occupancy")
        stats = histogram.as_dict()
        assert stats["count"] == world.channel.spatial_grid.cell_count
        assert stats["sum"] == 3  # every radio counted exactly once

    def test_occupancy_noop_without_registry(self):
        world = build_phy_world([NEAR, MID], spatial=True)
        world.channel.prepare_spatial()
        world.channel.record_spatial_occupancy()  # must not raise


# ----------------------------------------------------------------------
# Manifest spatial block (satellite)
# ----------------------------------------------------------------------
class TestManifestSpatialBlock:
    def _manifest_kwargs(self, **extra):
        base = dict(
            label="t", tasks=[], jobs=1, wall_s=0.0, params={}, seeds=[],
            counters={}, trace_counts={},
        )
        base.update(extra)
        return base

    def test_block_reports_grid_stats(self):
        reset_spatial_stats()
        try:
            world = build_phy_world([NEAR, MID, FAR], spatial=True)
            world.radios[0].start_transmission(world.data_frame(0, 1))
            world.sim.run()
            block = spatial_manifest_block()
            assert block["grids_built"] == 1
            assert block["cell_size_m"]["count"] == 1
            assert block["cell_size_m"]["min"] > 0.0
            assert block["reach_radius_m"]["count"] == 1
            assert block["reach_radius_m"]["max"] > 0.0
        finally:
            reset_spatial_stats()

    def test_block_minimal_when_nothing_built(self):
        reset_spatial_stats()
        world = build_phy_world([NEAR, MID, FAR], spatial=False)
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert spatial_manifest_block() == {"grids_built": 0}

    def test_aggregate_folds_samples(self):
        reset_spatial_stats()
        try:
            record_grid_built(10.0)
            record_grid_built(30.0)
            record_reach_radius(250.0)
            block = spatial_manifest_block()
            assert block["cell_size_m"] == {
                "count": 2, "min": 10.0, "max": 30.0, "mean": 20.0,
            }
            assert block["reach_radius_m"]["count"] == 1
        finally:
            reset_spatial_stats()

    def test_manifest_roundtrip_with_spatial(self):
        manifest = build_manifest(
            **self._manifest_kwargs(),
            spatial={"grids_built": 1, "cell_size_m": {"count": 1}},
            hotpath=True,
        )
        payload = manifest.to_dict()
        validate_manifest(payload)
        loaded = RunManifest.from_dict(payload)
        assert loaded.spatial == {"grids_built": 1, "cell_size_m": {"count": 1}}
        assert loaded.hotpath is True

    def test_old_style_enabled_block_still_loads(self):
        # Manifests archived while the grid was an opt-in knob record
        # the knob, not the grids built, and carry no hotpath field.
        manifest = build_manifest(**self._manifest_kwargs())
        payload = manifest.to_dict()
        payload["spatial"] = {"enabled": False}
        del payload["hotpath"]
        validate_manifest(payload)
        loaded = RunManifest.from_dict(payload)
        assert loaded.spatial == {"enabled": False}
        assert loaded.hotpath is None

    def test_old_manifests_still_validate(self):
        # Archived manifests predate the spatial field entirely.
        manifest = build_manifest(**self._manifest_kwargs())
        payload = manifest.to_dict()
        del payload["spatial"]
        validate_manifest(payload)
        loaded = RunManifest.from_dict(payload)
        assert loaded.spatial is None


# ----------------------------------------------------------------------
# The grid-vs-exhaustive choice
# ----------------------------------------------------------------------
class TestGridChoice:
    REACH_M = 1_500.0

    @pytest.mark.parametrize(
        "extent_reaches, expected",
        [(0.0, False), (0.14, False), (2.9, False), (GRID_MIN_EXTENT_REACHES, False),
         (3.1, True), (394.0, True)],
    )
    def test_boundary(self, extent_reaches, expected):
        # At or below three radii the 3x3 query block already covers the
        # whole floor, so only a strictly wider floor gets a grid.
        assert grid_pays_off(extent_reaches * self.REACH_M, self.REACH_M) is expected

    @staticmethod
    def _row_of_cells(cells=4):
        """Default-params DCF cells 3 km apart (bench_scale_city's shape)."""
        net = Network(ns2_params(), mac_kind="dcf", seed=17)
        for i in range(cells):
            cx = i * 3_000.0
            ap = net.add_ap(f"AP{i}", cx, 0.0)
            for j in range(4):
                client = net.add_client(f"C{i}-{j}", cx + 8.0 + 2.0 * j, 5.0, ap=ap)
        net.finalize()
        net.add_saturated(client, ap)
        return net

    def test_row_of_cells_floor_builds_a_grid(self):
        net = self._row_of_cells()
        channel = net.channels[0]
        grid = channel.spatial_grid
        assert grid is not None  # decided at finalize, before any traffic
        assert len(grid) == 20
        net.run(0.02)
        counters = net.counters()
        assert counters["channel/spatial_queries"] == channel.frames_sent > 0
        assert counters["channel/spatial_skipped"] > 0
        assert counters["channel/spatial_cells"] == grid.cell_count

    def test_fig8_floor_keeps_the_sweep(self):
        net, _ = run_scenario("fig8")
        assert all(ch.spatial_grid is None for ch in net.channels.values())
        counters = net.counters()
        assert counters["channel/frames_sent"] > 0
        assert counters["channel/spatial_queries"] == 0
        assert "channel/spatial_cells" not in counters
        assert "channel/spatial_cell_size_m" not in counters
