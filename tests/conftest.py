"""Shared test fixtures and stub objects."""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Tuple
from unittest import mock

import pytest

from repro.mac.frames import Frame, FrameType
from repro.mac.timing import OFDM_TIMING
from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.phy.rates import OFDM_RATES
from repro.sim.engine import Simulator
from repro.util.geometry import Point
from repro.util.rng import RngStreams


@contextmanager
def grid_forced(enabled: bool):
    """Force every channel deciding inside the block onto one sweep path.

    The grid-vs-exhaustive choice is perf-only, so the differential
    suites pin each side by patching the decision function itself
    (:func:`repro.phy.spatial.grid_pays_off`) instead of through any
    public setting.  A channel decides once — at ``Network.finalize``
    or its first transmission — so the block must cover that moment.
    """
    with mock.patch(
        "repro.phy.spatial.grid_pays_off", lambda extent_m, reach_m: enabled
    ):
        yield


class StubMac:
    """Records every PHY indication; lets tests drive radios directly."""

    def __init__(self):
        self.received: List[Tuple[Frame, float]] = []
        self.corrupted: List[Frame] = []
        self.completed: List[Frame] = []
        self.busy_edges: List[str] = []
        self.energy_samples: List[float] = []

    def on_frame_received(self, frame, rssi_dbm):
        self.received.append((frame, rssi_dbm))

    def on_frame_corrupted(self, frame):
        self.corrupted.append(frame)

    def on_tx_complete(self, frame):
        self.completed.append(frame)

    def on_medium_busy(self):
        self.busy_edges.append("busy")

    def on_medium_idle(self):
        self.busy_edges.append("idle")

    def on_energy_changed(self, energy_mw):
        self.energy_samples.append(energy_mw)

    def on_header_overheard(self, frame, rssi_dbm):
        """Embedded-announcement decodes land here; stubs ignore them."""


@dataclass
class PhyWorld:
    """A small PHY-only world: simulator, channel, and stub-MAC radios."""

    sim: Simulator
    channel: Channel
    radios: List[Radio]
    macs: List[StubMac]

    def data_frame(self, src: int, dst: int, payload: int = 500, rate=None) -> Frame:
        return Frame(
            kind=FrameType.DATA,
            src=src,
            dst=dst,
            rate=rate or OFDM_RATES.by_bps(6_000_000),
            payload_bytes=payload,
        )


def build_phy_world(
    positions,
    tx_power_dbm: float = 20.0,
    cs_threshold_dbm: float = -80.0,
    alpha: float = 3.3,
    sigma_db: float = 0.0,
    shadowing_mode: str = "none",
    seed: int = 0,
    capture: bool = True,
    cull_margin_db=None,
    air_latency_ns: int = 1_000,
    spatial: Optional[bool] = None,
) -> PhyWorld:
    """Create radios at ``positions`` with stub MACs on one channel.

    ``spatial`` forces the channel's grid-vs-exhaustive choice (taken
    right after the radios attach); ``None`` leaves it to the channel.
    """
    sim = Simulator()
    channel = Channel(
        sim=sim,
        propagation=LogNormalShadowing(alpha=alpha, sigma_db=sigma_db),
        timing=OFDM_TIMING,
        rngs=RngStreams(seed),
        shadowing_mode=shadowing_mode,
        cull_margin_db=cull_margin_db,
        air_latency_ns=air_latency_ns,
    )
    radios, macs = [], []
    for i, (x, y) in enumerate(positions):
        radio = Radio(
            radio_id=i,
            position=Point(x, y),
            config=RadioConfig(
                tx_power_dbm=tx_power_dbm,
                cs_threshold_dbm=cs_threshold_dbm,
                capture=capture,
            ),
            channel=channel,
        )
        mac = StubMac()
        radio.bind_mac(mac)
        radios.append(radio)
        macs.append(mac)
    if spatial is not None:
        with grid_forced(spatial):
            channel.prepare_spatial()
    return PhyWorld(sim=sim, channel=channel, radios=radios, macs=macs)


@dataclass
class MacWorld:
    """A full MAC-level world: DCF (or CO-MAP) entities on one channel."""

    sim: Simulator
    channel: Channel
    radios: List[Radio]
    macs: list

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + int(seconds * 1e9))

    def delivered(self, rx: int, flow: Optional[Tuple[int, int]] = None) -> int:
        stats = self.macs[rx].stats
        if flow is None:
            return stats.delivered_packets
        return stats.delivered_packets_by_flow.get(flow, 0)


def build_mac_world(
    positions,
    mac_factory=None,
    tx_power_dbm: float = 20.0,
    cs_threshold_dbm: float = -80.0,
    alpha: float = 3.3,
    sigma_db: float = 0.0,
    shadowing_mode: str = "none",
    seed: int = 0,
    config=None,
    rate_bps: int = 6_000_000,
) -> MacWorld:
    """Create DCF MACs at ``positions`` (deterministic channel by default)."""
    import dataclasses

    from repro.mac.dcf import DcfMac, MacConfig
    from repro.mac.rate_control import FixedRate

    sim = Simulator()
    rngs = RngStreams(seed)
    channel = Channel(
        sim=sim,
        propagation=LogNormalShadowing(alpha=alpha, sigma_db=sigma_db),
        timing=OFDM_TIMING,
        rngs=rngs,
        shadowing_mode=shadowing_mode,
    )
    radios, macs = [], []
    for i, (x, y) in enumerate(positions):
        radio = Radio(
            radio_id=i,
            position=Point(x, y),
            config=RadioConfig(tx_power_dbm=tx_power_dbm, cs_threshold_dbm=cs_threshold_dbm),
            channel=channel,
        )
        if mac_factory is not None:
            mac = mac_factory(i, sim, radio, rngs)
        else:
            mac = DcfMac(
                i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                config=dataclasses.replace(config) if config else MacConfig(),
                rate_policy=FixedRate(OFDM_RATES.by_bps(rate_bps)),
            )
        radios.append(radio)
        macs.append(mac)
    return MacWorld(sim=sim, channel=channel, radios=radios, macs=macs)


@pytest.fixture
def phy_pair():
    """Two radios 10 m apart (strong link)."""
    return build_phy_world([(0.0, 0.0), (10.0, 0.0)])


@pytest.fixture
def phy_trio():
    """Sender at 0, receiver at 10 m, far node at 200 m."""
    return build_phy_world([(0.0, 0.0), (10.0, 0.0), (200.0, 0.0)])
