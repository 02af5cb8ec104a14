"""Spatial candidate generation: differential harness and goldens.

Each channel chooses between the hash grid and the exhaustive culled
sweep itself (:func:`repro.phy.spatial.grid_pays_off`), and the choice
must be a pure performance decision: per-node counters, ``rx_power_mw``
maps, and per-flow goodput bit-identical either way, with the hot path
on or off and at every cull margin.  The suites force each side through
``tests.conftest.grid_forced`` and enforce the contract three ways:

* a **differential harness**: hypothesis-randomized sparse topologies
  (spread wide enough that culling actually fires) run with the grid on
  and off and must agree on every observable — including under mobility,
  which exercises incremental rehashing;
* **golden equivalence**: the pinned Fig-8 / Fig-10 / sparse-floor
  fixtures must be reproduced exactly with the grid forced on;
* **margin matrix**: grid-on equals grid-off at non-default cull
  margins (where the goldens don't apply, the exhaustive run is the
  oracle).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.geometry import Point
from repro.util.hotpath import hotpath_forced

from tests.conftest import build_phy_world, grid_forced
from tests.goldens import assert_baseline_matches, diff, run_scenario


# ----------------------------------------------------------------------
# Differential harness: randomized sparse topologies, grid on vs off
# ----------------------------------------------------------------------
def _drive(world, rounds=3, mover=None):
    """Round-robin one frame from every radio; collect all observables.

    ``mover``: optional ``(round, world) -> None`` hook run between
    rounds — the mobility variants rehash a radio mid-run with it.
    """
    n = len(world.radios)
    rx_maps = []
    for r in range(rounds):
        if mover is not None:
            mover(r, world)
        for src in range(n):
            if not world.radios[src].attached:
                continue  # churn variants detach a radio for a round
            dst = (src + 1) % n
            tx = world.radios[src].start_transmission(
                world.data_frame(src, dst)
            )
            world.sim.run()
            rx_maps.append(dict(tx.rx_power_mw))
    counters = [
        (
            radio.frames_transmitted,
            radio.frames_received,
            radio.frames_corrupted,
            radio.frames_missed,
        )
        for radio in world.radios
    ]
    energies = [mac.energy_samples for mac in world.macs]
    edges = [mac.busy_edges for mac in world.macs]
    return rx_maps, counters, energies, edges, world.channel.links_culled


# Wide placements (0–6 km): with the conftest defaults the cull fires
# beyond ~760 m, so random draws mix surviving and culled links.
_coord = st.floats(
    min_value=0.0, max_value=6_000.0, allow_nan=False, allow_infinity=False
)
_placement = st.lists(
    st.tuples(_coord, _coord), min_size=2, max_size=6, unique=True
)


class TestDifferentialHarness:
    @settings(max_examples=25, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
        sigma_db=st.sampled_from([0.0, 4.0]),
        mode=st.sampled_from(["per_frame", "per_link", "none"]),
    )
    def test_random_topologies_agree(self, positions, seed, sigma_db, mode):
        kwargs = dict(sigma_db=sigma_db, shadowing_mode=mode, seed=seed)
        baseline = _drive(build_phy_world(positions, spatial=False, **kwargs))
        spatial = _drive(build_phy_world(positions, spatial=True, **kwargs))
        assert baseline == spatial

    @settings(max_examples=10, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_agreement_survives_hotpath_off(self, positions, seed):
        kwargs = dict(sigma_db=4.0, shadowing_mode="per_frame", seed=seed)
        with hotpath_forced(False):
            baseline = _drive(
                build_phy_world(positions, spatial=False, **kwargs)
            )
            spatial = _drive(build_phy_world(positions, spatial=True, **kwargs))
        assert baseline == spatial

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_mobility_agrees(self, seed):
        # Radio 1 walks from cull range into the sender's cell and back
        # out — incremental rehashing must never change an observable.
        positions = [(0.0, 0.0), (5_000.0, 0.0), (30.0, 10.0)]
        waypoints = [
            Point(5_000.0, 0.0), Point(40.0, 0.0),
            Point(900.0, 900.0), Point(4_500.0, 20.0),
        ]

        def mover(round_index, world):
            world.radios[1].move_to(waypoints[round_index % len(waypoints)])

        kwargs = dict(sigma_db=4.0, shadowing_mode="per_frame", seed=seed)
        baseline = _drive(
            build_phy_world(positions, spatial=False, **kwargs),
            rounds=4, mover=mover,
        )
        spatial = _drive(
            build_phy_world(positions, spatial=True, **kwargs),
            rounds=4, mover=mover,
        )
        assert baseline == spatial

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_detach_reattach_agrees(self, seed):
        positions = [(0.0, 0.0), (20.0, 0.0), (3_000.0, 0.0)]

        def churn(round_index, world):
            if round_index == 1:
                world.channel.detach(world.radios[2])
            elif round_index == 2:
                world.channel.attach(world.radios[2])

        kwargs = dict(sigma_db=4.0, shadowing_mode="per_frame", seed=seed)
        baseline = _drive(
            build_phy_world(positions, spatial=False, **kwargs),
            rounds=4, mover=churn,
        )
        spatial = _drive(
            build_phy_world(positions, spatial=True, **kwargs),
            rounds=4, mover=churn,
        )
        assert baseline == spatial


# ----------------------------------------------------------------------
# Margin matrix: grid-on equals grid-off at every margin
# ----------------------------------------------------------------------
class TestMarginMatrix:
    @pytest.mark.parametrize("margin", [0.0, 6.0, 20.0, 45.0])
    def test_margins_agree(self, margin):
        positions = [(0.0, 0.0), (15.0, 0.0), (700.0, 0.0), (2_500.0, 0.0)]
        kwargs = dict(
            sigma_db=5.0, shadowing_mode="per_frame", seed=9,
            cull_margin_db=margin,
        )
        baseline = _drive(build_phy_world(positions, spatial=False, **kwargs))
        spatial = _drive(build_phy_world(positions, spatial=True, **kwargs))
        assert baseline == spatial

    @pytest.mark.parametrize("cull", [3.0, 30.0])
    def test_scenario_margin_overrides_agree(self, cull):
        # Full-MAC oracle runs at non-default margins (no golden
        # fixture exists there; the exhaustive run is the reference).
        with grid_forced(False):
            _, baseline = run_scenario("sparse_floor", cull=cull)
        with grid_forced(True):
            _, spatial = run_scenario("sparse_floor", cull=cull)
        assert diff(baseline, spatial) == []
        assert spatial["links_culled"] == baseline["links_culled"]


# ----------------------------------------------------------------------
# Golden end-to-end equivalence (fig8 / fig10 / sparse floor)
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_spatial_matches_golden(self, scenario):
        golden = assert_baseline_matches(scenario)
        with grid_forced(True):
            net, snap = run_scenario(scenario)
        assert diff(golden, snap) == []
        # Grid skips are charged into the culled counter per frame, so
        # even the cull total matches the exhaustive fixture exactly.
        assert snap["links_culled"] == golden["links_culled"]
        # And the grid really ran: every channel sized one.
        assert all(
            ch.counters()["spatial_queries"] > 0
            for ch in net.channels.values()
        )

    def test_spatial_with_hotpath_off_matches_golden(self):
        golden = assert_baseline_matches("fig8")
        with grid_forced(True), hotpath_forced(False):
            _, snap = run_scenario("fig8")
        assert diff(golden, snap) == []

    def test_sparse_floor_grid_actually_skips(self):
        # The sparse floor's two cells sit 4 km apart — far outside
        # reach — so the grid must absorb every cull without visiting
        # the far cell's radios at all: it queries every frame, so skips
        # match `culled_links` exactly.
        with grid_forced(True):
            net, snap = run_scenario("sparse_floor")
        totals = {
            key: sum(ch.counters()[key] for ch in net.channels.values())
            for key in ("spatial_skipped", "culled_links")
        }
        assert totals["spatial_skipped"] == totals["culled_links"] > 0
