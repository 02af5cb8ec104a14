"""The frame hot path: REPRO_HOTPATH knob + golden bit-equivalence.

The hot path caches linear-domain mean powers, composed per-link rx
powers, per-rate sensitivity/SIR constants, airtimes, and the radio's
in-air energy sum.  The discipline is *cache, never re-derive*: every
cached value comes from the exact expression the uncached path
evaluates, so ``REPRO_HOTPATH=off`` (full re-derivation) must produce
bit-identical results.  These tests pin that on the paper's Fig. 8 and
Fig. 10 topologies and on the 120-node sparse floor the engine bench
uses.
"""

import pytest

from repro.util.hotpath import (
    HOTPATH_ENV,
    hotpath_enabled,
    hotpath_forced,
    set_hotpath,
)

from tests.conftest import build_phy_world
from tests.goldens import assert_baseline_matches, diff, run_scenario


@pytest.fixture(autouse=True)
def _restore_hotpath():
    """Every test leaves the knob deferring to the environment."""
    yield
    set_hotpath(None)


# ----------------------------------------------------------------------
# Knob semantics
# ----------------------------------------------------------------------
class TestKnob:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(HOTPATH_ENV, raising=False)
        set_hotpath(None)
        assert hotpath_enabled() is True

    @pytest.mark.parametrize("value", ["off", "OFF", "0", "false", "no"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(HOTPATH_ENV, value)
        set_hotpath(None)
        assert hotpath_enabled() is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_other_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(HOTPATH_ENV, value)
        set_hotpath(None)
        assert hotpath_enabled() is True

    def test_set_hotpath_overrides_env(self, monkeypatch):
        monkeypatch.setenv(HOTPATH_ENV, "off")
        set_hotpath(True)
        assert hotpath_enabled() is True
        set_hotpath(None)  # back to deferring to the environment
        assert hotpath_enabled() is False

    def test_forced_context_restores(self):
        set_hotpath(True)
        with hotpath_forced(False):
            assert hotpath_enabled() is False
        assert hotpath_enabled() is True


# ----------------------------------------------------------------------
# Micro-level equivalence on a PHY-only world
# ----------------------------------------------------------------------
def _rx_powers(world, frames=4):
    powers = []
    for _ in range(frames):
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        powers.append(dict(tx.rx_power_mw))
    return powers


class TestPhyEquivalence:
    @pytest.mark.parametrize("mode", ["none", "per_link", "per_frame"])
    def test_rx_power_identical_per_mode(self, mode):
        kwargs = dict(sigma_db=5.0, shadowing_mode=mode, seed=11)
        with hotpath_forced(True):
            on = _rx_powers(build_phy_world([(0.0, 0.0), (10.0, 0.0)], **kwargs))
        with hotpath_forced(False):
            off = _rx_powers(build_phy_world([(0.0, 0.0), (10.0, 0.0)], **kwargs))
        assert on == off

    def test_mobility_invalidation_identical(self):
        from repro.util.geometry import Point

        def run(enabled):
            with hotpath_forced(enabled):
                world = build_phy_world(
                    [(0.0, 0.0), (10.0, 0.0)],
                    sigma_db=5.0,
                    shadowing_mode="per_link",
                    seed=3,
                )
                first = _rx_powers(world, frames=2)
                world.radios[1].move_to(Point(25.0, 0.0))
                second = _rx_powers(world, frames=2)
            return first, second

        assert run(True) == run(False)


# ----------------------------------------------------------------------
# Golden end-to-end equivalence
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    """Hot-path-off vs the committed default-mode fixtures.

    The fixture (tests/golden/) is one canonical run with the caches on;
    ``assert_baseline_matches`` re-pins it per process, and each variant
    run here only has to match the fixture — equivalence between any two
    modes is transitive through the golden.
    """

    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_rederivation_matches_golden(self, scenario):
        golden = assert_baseline_matches(scenario)
        with hotpath_forced(False):
            _, snap = run_scenario(scenario)
        assert diff(golden, snap) == []
        # Coalesced air notifications mean strictly fewer engine events
        # for the same physics: the fixture (caches on) must undercut
        # the per-receiver re-derivation path.
        assert golden["events_fired"] < snap["events_fired"]
