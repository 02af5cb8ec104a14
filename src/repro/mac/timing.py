"""PHY timing profiles: slot / SIFS / DIFS / EIFS / preamble durations.

Two profiles cover the paper's two evaluation substrates:

* :data:`DSSS_TIMING` — 802.11b long-preamble DSSS, used by the 6-laptop
  testbed scenarios (slot 20 µs, SIFS 10 µs, 192 µs PLCP preamble+header).
* :data:`OFDM_TIMING` — 802.11a/g OFDM, used for the NS-2-style large
  scale runs at 6 Mbps (slot 9 µs, SIFS 16 µs, 20 µs preamble+SIGNAL).

All durations are engine ticks (integer nanoseconds).  Frame airtime is
``preamble + total_bytes * 8 / rate`` — OFDM symbol padding is ignored, a
sub-1 % idealization documented in DESIGN.md.

Airtimes are memoized per ``(rate, size)``: DCF, CO-MAP, and C-MAP all
recompute frame/ACK/CTS airtimes and EIFS per frame, yet the distinct
key set is tiny (a handful of rates times a handful of sizes).  Each
value is integer arithmetic on frozen inputs — a pure function of its
key — so the memo is exact by construction and always on, whatever
``REPRO_HOTPATH`` says (``tests/test_frames_timing.py`` pins it
against the direct expressions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mac.frames import ACK_BYTES, CTS_BYTES, Frame
from repro.phy.rates import Rate, RateTable
from repro.util.units import MICROSECOND


@dataclass(frozen=True)
class PhyTiming:
    """Interframe spacing and per-frame overhead for one PHY flavour."""

    name: str
    slot_ns: int
    sifs_ns: int
    preamble_ns: int
    #: Propagation/turnaround slack added to ACK timeout beyond SIFS+ACK.
    ack_timeout_slack_ns: int

    def __post_init__(self) -> None:
        # Per-instance airtime memo, keyed (kind, rate, size). The dataclass
        # is frozen so the dict is attached via object.__setattr__; it holds
        # derived values only and is excluded from eq/repr by not being a
        # field.
        object.__setattr__(self, "_memo", {})

    @property
    def difs_ns(self) -> int:
        """DIFS = SIFS + 2 * slot (802.11-2007 9.2.10)."""
        return self.sifs_ns + 2 * self.slot_ns

    def eifs_ns(self, base_rate: Rate) -> int:
        """EIFS = SIFS + ACK airtime at the base rate + DIFS.

        Applied after a corrupted reception (802.11-2007 9.2.3.4) so the
        sender of the corrupted frame has room to be ACKed.
        """
        key = ("eifs", base_rate)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = (
                self.sifs_ns + self.ack_airtime_ns(base_rate) + self.difs_ns
            )
        return value

    def frame_airtime_ns(self, frame: Frame) -> int:
        """Total on-air duration of ``frame`` at its own rate.

        Memoized per ``(rate, total_bytes)`` — the airtime depends on the
        frame only through those two values.
        """
        key = ("frame", frame.rate, frame.total_bytes)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = (
                self.preamble_ns + frame.rate.airtime_ns(frame.total_bytes)
            )
        return value

    def ack_airtime_ns(self, rate: Rate) -> int:
        """Duration of an ACK control frame at ``rate``."""
        key = ("ack", rate)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.preamble_ns + rate.airtime_ns(ACK_BYTES)
        return value

    def cts_airtime_ns(self, rate: Rate) -> int:
        """Duration of a CTS control frame at ``rate``."""
        key = ("cts", rate)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.preamble_ns + rate.airtime_ns(CTS_BYTES)
        return value

    def ack_timeout_ns(self, rate: Rate) -> int:
        """How long a sender waits for an ACK before declaring loss."""
        key = ("ack_timeout", rate)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = (
                self.sifs_ns + self.ack_airtime_ns(rate) + self.ack_timeout_slack_ns
            )
        return value

    def data_exchange_ns(self, rate: Rate, payload_bytes: int, ack_rate: Rate) -> int:
        """Airtime of one successful DATA/ACK exchange including DIFS.

        This is the paper's ``T_s`` (eq. 8):
        ``T_HDR + T_payload + SIFS + T_ACK + DIFS`` — the analytical model
        and the simulator share this arithmetic so Fig. 7 comparisons are
        apples-to-apples.
        """
        from repro.mac.frames import MAC_DATA_OVERHEAD_BYTES

        data_air = self.preamble_ns + rate.airtime_ns(
            payload_bytes + MAC_DATA_OVERHEAD_BYTES
        )
        return data_air + self.sifs_ns + self.ack_airtime_ns(ack_rate) + self.difs_ns

    def collision_ns(self, rate: Rate, payload_bytes: int) -> int:
        """The paper's ``T_c`` (eq. 8): ``T_HDR + T_payload + DIFS``."""
        from repro.mac.frames import MAC_DATA_OVERHEAD_BYTES

        data_air = self.preamble_ns + rate.airtime_ns(
            payload_bytes + MAC_DATA_OVERHEAD_BYTES
        )
        return data_air + self.difs_ns


#: 802.11b long-preamble DSSS timing (testbed scenarios).
DSSS_TIMING = PhyTiming(
    name="dsss",
    slot_ns=20 * MICROSECOND,
    sifs_ns=10 * MICROSECOND,
    preamble_ns=192 * MICROSECOND,
    ack_timeout_slack_ns=2 * 20 * MICROSECOND,
)

#: 802.11a/g OFDM timing (large-scale NS-2-style scenarios).
OFDM_TIMING = PhyTiming(
    name="ofdm",
    slot_ns=9 * MICROSECOND,
    sifs_ns=16 * MICROSECOND,
    preamble_ns=20 * MICROSECOND,
    ack_timeout_slack_ns=2 * 9 * MICROSECOND,
)


def timing_for_rates(rates: RateTable) -> PhyTiming:
    """Pick the natural timing profile for a rate table (by base rate)."""
    return DSSS_TIMING if rates.base.bps <= 2_000_000 else OFDM_TIMING
