"""Below-floor interference culling and per-link RNG substreams.

Covers the channel hot-path overhaul:

* margin resolution (explicit > ``REPRO_CULL_MARGIN_DB`` env > default);
* the indexed pair cache that makes mobility invalidation O(degree);
* culling behavior: skipped draws, skipped events, counters;
* the mid-run-attach contract (no spurious ``on_air_end``);
* RNG isolation: per-link substreams mean culling (or extra radios)
  cannot perturb the randomness any surviving link sees;
* end-to-end equivalence: culling-on and culling-off produce identical
  per-node results on the paper's Fig. 8 / Fig. 10 topologies (where
  nothing is in cull range) and on a sparse multi-cell network where
  culling actually fires.
"""

import pytest

from repro.experiments.params import testbed_params
from repro.net.network import Network
from repro.phy.channel import (
    CULL_DETERMINISTIC_MARGIN_DB,
    CULL_MARGIN_ENV,
    CULL_SIGMA_FACTOR,
    _PairCache,
    resolve_cull_margin_db,
)
from repro.phy.radio import Radio, RadioConfig
from repro.util.geometry import Point
from repro.util.hotpath import hotpath_forced

from tests.conftest import StubMac, build_phy_world
from tests.goldens import assert_baseline_matches, diff, run_scenario


# ----------------------------------------------------------------------
# Margin resolution
# ----------------------------------------------------------------------
class TestMarginResolution:
    def test_default_is_six_sigma(self, monkeypatch):
        monkeypatch.delenv(CULL_MARGIN_ENV, raising=False)
        assert resolve_cull_margin_db(5.0) == CULL_SIGMA_FACTOR * 5.0

    def test_default_without_shadowing(self, monkeypatch):
        monkeypatch.delenv(CULL_MARGIN_ENV, raising=False)
        assert resolve_cull_margin_db(0.0) == CULL_DETERMINISTIC_MARGIN_DB

    def test_env_knob_overrides_default(self, monkeypatch):
        monkeypatch.setenv(CULL_MARGIN_ENV, "12.5")
        assert resolve_cull_margin_db(5.0) == 12.5

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv(CULL_MARGIN_ENV, "off")
        assert resolve_cull_margin_db(5.0) is None
        monkeypatch.setenv(CULL_MARGIN_ENV, "OFF")
        assert resolve_cull_margin_db(0.0) is None

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(CULL_MARGIN_ENV, "12.5")
        assert resolve_cull_margin_db(5.0, 7.0) == 7.0
        assert resolve_cull_margin_db(5.0, "off") is None

    def test_negative_margin_disables(self, monkeypatch):
        monkeypatch.delenv(CULL_MARGIN_ENV, raising=False)
        assert resolve_cull_margin_db(5.0, -1.0) is None

    def test_malformed_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(CULL_MARGIN_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_cull_margin_db(5.0)


# ----------------------------------------------------------------------
# The indexed pair cache (O(degree) invalidation)
# ----------------------------------------------------------------------
class TestPairCache:
    def test_get_put_roundtrip(self):
        cache = _PairCache()
        assert cache.get((1, 2)) is None
        cache.put((1, 2), 3.5)
        assert cache.get((1, 2)) == 3.5
        assert len(cache) == 1

    def test_invalidate_drops_both_directions(self):
        cache = _PairCache()
        cache.put((1, 2), 0.1)
        cache.put((2, 1), 0.2)
        cache.put((2, 3), 0.3)
        assert cache.invalidate(1) == 2
        assert cache.get((1, 2)) is None
        assert cache.get((2, 1)) is None
        assert cache.get((2, 3)) == 0.3

    def test_invalidate_unknown_radio_is_noop(self):
        cache = _PairCache()
        cache.put((1, 2), 0.1)
        assert cache.invalidate(99) == 0
        assert len(cache) == 1

    def test_peer_index_cleaned_up(self):
        # After invalidating radio 1, radio 2's index must no longer
        # reference the dead keys — a later invalidate(2) finds nothing.
        cache = _PairCache()
        cache.put((1, 2), 0.1)
        cache.put((2, 1), 0.2)
        cache.invalidate(1)
        assert cache.invalidate(2) == 0

    def test_reinsert_after_invalidate(self):
        cache = _PairCache()
        cache.put((1, 2), 0.1)
        cache.invalidate(2)
        cache.put((1, 2), 0.9)
        assert cache.get((1, 2)) == 0.9
        assert cache.invalidate(1) == 1


# ----------------------------------------------------------------------
# Culling behavior on a PHY-only world
# ----------------------------------------------------------------------
# With the conftest defaults (20 dBm, alpha = 3.3, sigma = 0, noise floor
# -95 dBm, T_cs = -80 dBm) the 20 dB deterministic margin culls receivers
# whose mean power is under -115 dBm, i.e. beyond ~760 m.
NEAR = (0.0, 0.0)
MID = (10.0, 0.0)
FAR = (5_000.0, 0.0)


class TestCulling:
    def test_far_radio_is_culled(self):
        world = build_phy_world([NEAR, MID, FAR])
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert set(tx.rx_power_mw) == {1}
        assert world.channel.links_culled == 1
        # The culled radio never heard about the frame at all.
        assert world.macs[2].energy_samples == []
        assert world.macs[2].busy_edges == []
        assert world.radios[2].frames_missed == 0
        assert world.radios[2]._in_air == {}

    def test_cull_off_restores_exhaustive_path(self):
        world = build_phy_world([NEAR, MID, FAR], cull_margin_db="off")
        assert world.channel.cull_margin_db is None
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert set(tx.rx_power_mw) == {1, 2}
        assert world.channel.links_culled == 0
        # Below the noise floor the frame is invisible, not "missed".
        assert world.radios[2].frames_missed == 0

    def test_env_knob_reaches_channel(self, monkeypatch):
        monkeypatch.setenv(CULL_MARGIN_ENV, "off")
        world = build_phy_world([NEAR, FAR])
        assert world.channel.cull_margin_db is None
        monkeypatch.setenv(CULL_MARGIN_ENV, "40")
        world = build_phy_world([NEAR, FAR])
        assert world.channel.cull_margin_db == 40.0

    def test_counters_exposed(self):
        world = build_phy_world([NEAR, MID, FAR])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        counters = world.channel.counters()
        assert counters["culled_links"] == 1
        assert counters["cull_margin_db"] == CULL_DETERMINISTIC_MARGIN_DB
        # Culling off: the setting is omitted, never a -1.0 sentinel.
        off = build_phy_world([NEAR], cull_margin_db="off")
        assert "cull_margin_db" not in off.channel.counters()

    def test_culled_radio_events_not_scheduled(self):
        # Event economy, not just delivery: the culled receiver's
        # on_air_start/on_air_end events never enter the queue.  Pinned
        # to the uncoalesced path — the default hot path batches all
        # receivers of a frame into one delivery event, so per-receiver
        # event counts are only visible with the hot path off.
        with hotpath_forced(False):
            exhaustive = build_phy_world([NEAR, MID, FAR], cull_margin_db="off")
            exhaustive.radios[0].start_transmission(exhaustive.data_frame(0, 1))
            exhaustive.sim.run()
            culled = build_phy_world([NEAR, MID, FAR])
            culled.radios[0].start_transmission(culled.data_frame(0, 1))
            culled.sim.run()
        assert culled.sim.events_fired == exhaustive.sim.events_fired - 2

    def test_move_into_range_uncults(self):
        world = build_phy_world([NEAR, MID, FAR])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert world.channel.links_culled == 1
        # The mean-power cache must be invalidated by the move, or the
        # stale below-floor entry would keep culling a now-close radio.
        world.radios[2].move_to(Point(20.0, 0.0))
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 2 in tx.rx_power_mw
        assert world.channel.links_culled == 1


# ----------------------------------------------------------------------
# Mid-run attach contract
# ----------------------------------------------------------------------
class TestMidRunAttach:
    def test_attach_during_flight_sees_nothing(self):
        world = build_phy_world([NEAR, MID])
        world.radios[0].start_transmission(world.data_frame(0, 1, payload=1500))
        world.sim.run(until=200_000)  # mid-frame (airtime ~2 ms at 6 Mbps)
        late = Radio(
            radio_id=99,
            position=Point(5.0, 0.0),
            config=RadioConfig(tx_power_dbm=20.0, cs_threshold_dbm=-80.0),
            channel=world.channel,
        )
        late_mac = StubMac()
        late.bind_mac(late_mac)
        world.sim.run()
        # The in-flight frame was invisible to the late radio: no
        # retroactive on_air_start, and — the actual bug this guards —
        # no spurious on_air_end when the frame lands.
        assert late_mac.energy_samples == []
        assert late_mac.busy_edges == []
        assert late.frames_missed == 0
        assert late._in_air == {}
        # The original receiver still completed its reception normally.
        assert [f.src for f, _ in world.macs[1].received] == [0]

    def test_late_radio_participates_in_next_frame(self):
        world = build_phy_world([NEAR, MID])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run(until=200_000)
        late = Radio(
            radio_id=99,
            position=Point(5.0, 0.0),
            config=RadioConfig(tx_power_dbm=20.0, cs_threshold_dbm=-80.0),
            channel=world.channel,
        )
        late.bind_mac(StubMac())
        world.sim.run()
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 99 in tx.rx_power_mw

    def test_duplicate_radio_id_rejected(self):
        world = build_phy_world([NEAR, MID])
        with pytest.raises(ValueError):
            Radio(
                radio_id=1,
                position=Point(1.0, 0.0),
                config=RadioConfig(),
                channel=world.channel,
            )


class TestMidRunDetach:
    """The flip side of the mid-run attach contract: leaving cleanly.

    A radio removed mid-transmission must not receive ``on_air_end`` (or
    any other PHY edge) for frames it never saw complete, and a node
    detached at the network level must have every pending MAC timer
    cancelled — no stale callback may fire against a suspended MAC.
    """

    def test_detach_mid_flight_no_spurious_air_end(self):
        world = build_phy_world([NEAR, MID])
        world.radios[0].start_transmission(world.data_frame(0, 1, payload=1500))
        world.sim.run(until=200_000)  # mid-frame (airtime ~2 ms at 6 Mbps)
        victim = world.radios[1]
        assert victim._in_air  # the frame is on its way
        world.channel.detach(victim)
        edges_at_detach = list(world.macs[1].busy_edges)
        world.sim.run()
        # The already-scheduled per-receiver delivery events fired, but
        # the detached radio ignored them: no reception, no corruption,
        # no busy/idle edges after the detach instant.
        assert world.macs[1].received == []
        assert world.macs[1].corrupted == []
        assert world.macs[1].busy_edges == edges_at_detach
        assert victim._in_air == {}
        # The locked in-flight frame counts as missed, not received.
        assert victim.frames_missed == 1

    def test_detach_transmitter_mid_own_frame(self):
        world = build_phy_world([NEAR, MID])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run(until=100_000)
        world.channel.detach(world.radios[0])
        world.sim.run()  # scheduled end-of-air events must not crash
        assert world.macs[0].completed == []  # no tx-complete after leaving
        assert world.radios[0].transmitting is False

    def test_detached_radio_cannot_transmit(self):
        world = build_phy_world([NEAR, MID])
        world.channel.detach(world.radios[0])
        with pytest.raises(RuntimeError, match="detached"):
            world.radios[0].start_transmission(world.data_frame(0, 1))

    def test_detach_unknown_radio_rejected(self):
        world = build_phy_world([NEAR, MID])
        world.channel.detach(world.radios[1])
        with pytest.raises(ValueError, match="not attached"):
            world.channel.detach(world.radios[1])

    def test_reattach_participates_again(self):
        world = build_phy_world([NEAR, MID])
        victim = world.radios[1]
        world.channel.detach(victim)
        tx_gone = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert victim.radio_id not in tx_gone.rx_power_mw
        world.channel.attach(victim)
        tx_back = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert victim.radio_id in tx_back.rx_power_mw

    def _saturated_pair(self):
        net = Network(testbed_params(), mac_kind="dcf", seed=4)
        ap = net.add_ap("AP", 0.0, 0.0)
        c = net.add_client("C", 8.0, 0.0, ap=ap)
        net.finalize()
        net.add_saturated(c, ap)
        return net, c

    def test_network_detach_cancels_mac_timers(self):
        net, client = self._saturated_pair()
        net.run(0.01)
        mac = client.mac
        net.detach_node(client)
        assert mac.suspended
        # Every pending MAC timer is cancelled and dropped.
        for attr in (
            "_ifs_handle",
            "_countdown_handle",
            "_ack_timeout_handle",
            "_cts_timeout_handle",
            "_nav_resume_handle",
        ):
            assert getattr(mac, attr) is None, attr
        sent_at_detach = client.radio.frames_transmitted
        net.sim.run(until=net.sim.now + 50_000_000)
        # No stale timer fired: the suspended node never transmits.
        assert client.radio.frames_transmitted == sent_at_detach

    def test_network_reattach_resumes_traffic(self):
        net, client = self._saturated_pair()
        net.run(0.01)
        net.detach_node(client)
        sent_at_detach = client.radio.frames_transmitted
        net.sim.run(until=net.sim.now + 10_000_000)
        net.reattach_node(client)
        assert not client.mac.suspended
        net.sim.run(until=net.sim.now + 20_000_000)
        assert client.radio.frames_transmitted > sent_at_detach

    def test_double_detach_rejected(self):
        net, client = self._saturated_pair()
        net.detach_node(client)
        with pytest.raises(RuntimeError, match="already detached"):
            net.detach_node(client)
        net.reattach_node(client)
        with pytest.raises(RuntimeError, match="not detached"):
            net.reattach_node(client)


# ----------------------------------------------------------------------
# Per-link substream isolation
# ----------------------------------------------------------------------
def _rx_sequence(world, receiver_id, frames=3):
    """Transmit ``frames`` frames from radio 0; rx power at ``receiver_id``."""
    powers = []
    for _ in range(frames):
        tx = world.radios[0].start_transmission(world.data_frame(0, receiver_id))
        world.sim.run()
        powers.append(tx.rx_power_mw[receiver_id])
    return powers


class TestSubstreamIsolation:
    def test_extra_radio_does_not_perturb_link(self):
        # Under the old shared-stream scheme, a third attached radio
        # consumed draws from the same generator and shifted every
        # subsequent draw on the 0 -> 1 link.  Per-link substreams make
        # the link's randomness a function of its identity alone.
        kwargs = dict(sigma_db=5.0, shadowing_mode="per_frame", seed=11)
        alone = build_phy_world([NEAR, MID], **kwargs)
        crowded = build_phy_world([NEAR, MID, (30.0, 0.0)], **kwargs)
        assert _rx_sequence(alone, 1) == _rx_sequence(crowded, 1)

    def test_culling_does_not_perturb_surviving_links(self):
        kwargs = dict(sigma_db=5.0, shadowing_mode="per_frame", seed=11)
        culled = build_phy_world([NEAR, MID, FAR], **kwargs)
        exhaustive = build_phy_world(
            [NEAR, MID, FAR], cull_margin_db="off", **kwargs
        )
        assert culled.channel.cull_margin_db == 30.0  # 6 sigma
        assert _rx_sequence(culled, 1) == _rx_sequence(exhaustive, 1)
        assert culled.channel.links_culled > 0

    def test_per_frame_draws_vary_per_frame(self):
        world = build_phy_world(
            [NEAR, MID], sigma_db=5.0, shadowing_mode="per_frame", seed=11
        )
        powers = _rx_sequence(world, 1)
        assert len(set(powers)) == len(powers)

    def test_per_link_draw_is_stable(self):
        world = build_phy_world(
            [NEAR, MID], sigma_db=5.0, shadowing_mode="per_link", seed=11
        )
        powers = _rx_sequence(world, 1)
        assert len(set(powers)) == 1


# ----------------------------------------------------------------------
# End-to-end equivalence: culling off vs the default-mode goldens
# ----------------------------------------------------------------------
class TestEquivalence:
    """Exhaustive (cull-off) runs must match the committed fixtures.

    The fixtures were captured with the *default* margin active, so a
    match here proves culling changed nothing observable — without
    re-simulating the baseline in every suite (equivalence is
    transitive through the golden; ``assert_baseline_matches`` pins the
    default path itself once per process).
    """

    @pytest.mark.parametrize("scenario", ["fig8", "fig10"])
    def test_cull_off_matches_golden(self, scenario):
        # Fig. 8 / Fig. 10 span tens to hundreds of meters; the default
        # 6-sigma margin culls only kilometre-scale links, so the fixture
        # recorded zero culled links and the exhaustive run must agree
        # bit for bit.
        golden = assert_baseline_matches(scenario)
        assert golden["links_culled"] == 0
        net, snap = run_scenario(scenario, cull="off")
        assert diff(golden, snap) == []
        assert snap["links_culled"] == 0

    def test_sparse_cells_cull_and_stay_equivalent(self):
        # Two saturated cells 4 km apart: at ns2 power the 30 dB margin
        # culls every cross-cell link (the fixture records them), yet the
        # exhaustive run must produce identical per-node outcomes.
        golden = assert_baseline_matches("sparse_floor")
        assert golden["links_culled"] > 0
        net, snap = run_scenario("sparse_floor", cull="off")
        assert diff(golden, snap) == []
        assert snap["links_culled"] == 0

    def test_sparse_culling_event_economy(self):
        # Culling's event savings (per-receiver notifications that never
        # enter the queue) are only visible on the uncoalesced path: the
        # hot path delivers all of a frame's receivers in one event
        # regardless of culling.
        with hotpath_forced(False):
            net_on, snap_on = run_scenario("sparse_floor")
            net_off, snap_off = run_scenario("sparse_floor", cull="off")
        assert snap_on["links_culled"] > 0
        assert snap_off["links_culled"] == 0
        assert snap_on["events_fired"] < snap_off["events_fired"]
