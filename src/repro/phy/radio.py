"""A half-duplex radio: clear-channel assessment and SIR-based reception.

Reception model (matching NS-2's interference handling, which the paper
validates its analytical model against):

* The radio **locks** onto the first frame that arrives while it is
  neither transmitting nor already locked, provided the frame's received
  power clears the rate's sensitivity.
* While locked it tracks the **maximum concurrent interference** (sum of
  all other in-air power).  At frame end the frame survives iff

  ``signal / (max_interference + noise_floor) >= sir_threshold(rate)``.

* Frames arriving during a lock are pure interference (no mid-frame
  capture by default); frames arriving while the radio transmits are
  missed entirely but still contribute energy afterwards.

Clear-channel assessment is pure energy detection against
``cs_threshold_dbm`` (the paper's ``T_cs``), which is what lets hidden
terminals arise: a node whose received energy stays under ``T_cs`` sees an
idle medium even while a distant sender is corrupting its receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.phy.channel import Channel, Transmission
from repro.phy.rates import sensitivity_mw, sir_threshold_ratio
from repro.util.geometry import Point
from repro.util.hotpath import hotpath_enabled
from repro.util.units import dbm_to_mw, mw_to_dbm

if TYPE_CHECKING:  # avoid a phy <-> mac import cycle; hints only
    from repro.mac.frames import Frame


@dataclass
class RadioConfig:
    """Per-radio PHY parameters.

    ``cs_threshold_dbm`` is the paper's ``T_cs``; ``noise_floor_dbm``
    defaults to the -95 dBm the paper quotes for 2.4 GHz WiFi.
    ``capture`` enables message-in-message capture: a later frame that is
    decodable *over* the ongoing reception re-locks the receiver (standard
    on commodity 802.11 hardware, and required for an exposed terminal's
    receiver to pick its own sender's frame out of an overheard weaker
    transmission it happened to lock first).
    """

    tx_power_dbm: float = 0.0
    cs_threshold_dbm: float = -82.0
    noise_floor_dbm: float = -95.0
    capture: bool = True


class _ReceptionLock:
    """Bookkeeping for the frame currently being received."""

    __slots__ = ("tx", "signal_mw", "max_interference_mw")

    def __init__(self, tx: Transmission, signal_mw: float, interference_mw: float):
        self.tx = tx
        self.signal_mw = signal_mw
        self.max_interference_mw = interference_mw


class Radio:
    """One node's PHY front end, attached to a :class:`Channel`."""

    def __init__(
        self,
        radio_id: int,
        position: Point,
        config: RadioConfig,
        channel: Channel,
    ) -> None:
        self.radio_id = radio_id
        self.position = position
        self.config = config
        self.channel = channel
        self.sim = channel.sim
        self.mac = None  # bound via bind_mac()
        self._cs_threshold_mw = dbm_to_mw(config.cs_threshold_dbm)
        self._noise_mw = dbm_to_mw(config.noise_floor_dbm)
        self._in_air: dict = {}  # Transmission -> rx power mW
        #: REPRO_HOTPATH snapshot (see repro.util.hotpath): gates the
        #: energy memo and the per-rate constant caches below.
        self._hotpath = hotpath_enabled()
        # Memoized sum(self._in_air.values()); every _in_air mutation sets
        # the dirty flag, so the memo is exactly the sum the uncached path
        # would compute over the same dict.
        self._energy_cache = 0.0
        self._energy_dirty = False
        self._current_tx: Optional[Transmission] = None
        self._lock: Optional[_ReceptionLock] = None
        self._busy = False
        # Counters (inspected by tests and metrics).
        self.frames_received = 0
        self.frames_corrupted = 0
        self.frames_missed = 0
        self.frames_transmitted = 0
        #: Cumulative airtime spent transmitting (ns) — duty-cycle metric.
        self.airtime_tx_ns = 0
        self._attached = False  # set by channel.attach via on_attached()
        channel.attach(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_mac(self, mac) -> None:
        """Attach the MAC entity that receives PHY indications."""
        self.mac = mac

    @property
    def attached(self) -> bool:
        """True while the radio is registered with its channel."""
        return self._attached

    def on_attached(self) -> None:
        """Channel callback: the radio joined (or re-joined) the medium."""
        self._attached = True

    def on_detached(self) -> None:
        """Channel callback: the radio left the medium mid-run.

        Resets all reception state: frames still in the air no longer
        reach this radio (a half-received lock counts as missed), CCA
        reads idle, and an own transmission still in flight is disowned —
        its ``on_own_tx_end`` will be ignored.  The MAC is expected to be
        suspended separately (see ``Network.detach_node``), so no busy or
        idle edge is delivered here.
        """
        self._attached = False
        if self._lock is not None:
            self.frames_missed += 1
            self._lock = None
        self._in_air.clear()
        self._energy_dirty = True
        self._current_tx = None
        self._busy = False

    def move_to(self, position: Point) -> None:
        """Update the radio's physical position (mobility support).

        Cached position-dependent channel state involving this radio —
        per-link shadowing draws and the deterministic path-loss cache
        that drives below-floor culling — describes paths that no longer
        exist, so it is dropped (via a per-radio index: O(degree), not
        O(all links)).
        """
        self.position = position
        self.channel.on_radio_moved(self.radio_id)

    def set_tx_power_dbm(self, dbm: float) -> None:
        """Change this radio's transmit power (C-SR power capping).

        Each radio owns its :class:`RadioConfig` instance, so the
        mutation is node-local.  Cached channel state that encodes the
        old power (mean rx powers, composed per-link powers) is
        invalidated; per-link shadowing draws are untouched.
        No-op at the current power, so repeated caps/restores to the
        same value cost nothing.
        """
        if dbm == self.config.tx_power_dbm:
            return
        self.config.tx_power_dbm = dbm
        self.channel.on_radio_power_changed(self.radio_id)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        """True while this radio's own frame is on the air."""
        return self._current_tx is not None

    def energy_mw(self) -> float:
        """Total in-air power currently measured at this radio (mW).

        Hot sites (CCA, interference tracking, capture tests) call this
        several times per notification; the hot path memoizes the sum and
        recomputes only after ``_in_air`` changes.
        """
        if self._hotpath:
            if self._energy_dirty:
                self._energy_cache = (
                    sum(self._in_air.values()) if self._in_air else 0.0
                )
                self._energy_dirty = False
            return self._energy_cache
        if not self._in_air:
            return 0.0
        return sum(self._in_air.values())

    def _sensitivity_mw(self, rate) -> float:
        """``rate.sensitivity_dbm`` in mW (cached per rate on the hot path)."""
        if self._hotpath:
            return sensitivity_mw(rate)
        return dbm_to_mw(rate.sensitivity_dbm)

    def _sir_threshold(self, rate) -> float:
        """``rate.sir_threshold_db`` as a ratio (cached per rate on the hot path)."""
        if self._hotpath:
            return sir_threshold_ratio(rate)
        return 10.0 ** (rate.sir_threshold_db / 10.0)

    def energy_dbm(self) -> float:
        """In-air power in dBm; the noise floor when nothing is in the air."""
        energy = self.energy_mw()
        if energy <= 0.0:
            return self.config.noise_floor_dbm
        return mw_to_dbm(energy + self._noise_mw)

    def medium_busy(self) -> bool:
        """Clear-channel assessment: own transmission or energy over T_cs."""
        return self.transmitting or self.energy_mw() >= self._cs_threshold_mw

    @property
    def noise_mw(self) -> float:
        """Thermal noise floor in mW."""
        return self._noise_mw

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def start_transmission(self, frame: "Frame") -> Transmission:
        """Begin sending ``frame``; the radio is deaf until it completes."""
        if not self._attached:
            raise RuntimeError(
                f"radio {self.radio_id} is detached and cannot transmit"
            )
        if self._current_tx is not None:
            raise RuntimeError(
                f"radio {self.radio_id} is already transmitting "
                f"{self._current_tx.frame.describe()}"
            )
        if self._lock is not None:
            # Physically we cannot keep receiving while transmitting; the
            # half-received frame is lost.
            self.frames_missed += 1
            self._lock = None
        self.frames_transmitted += 1
        self._current_tx = self.channel.transmit(self, frame)
        self._update_busy()
        return self._current_tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        """Channel callback: this radio's own frame finished."""
        if not self._attached:
            return  # detached mid-own-transmission; state already reset
        assert tx is self._current_tx, "transmission bookkeeping out of sync"
        self._current_tx = None
        self.airtime_tx_ns += tx.duration_ns
        frame = tx.frame
        self._update_busy()
        if self.mac is not None:
            self.mac.on_tx_complete(frame)

    # ------------------------------------------------------------------
    # Receive path (channel callbacks)
    # ------------------------------------------------------------------
    def on_air_start(self, tx: Transmission, power_mw: float) -> None:
        """A foreign transmission began; update CCA and reception state."""
        if not self._attached:
            return  # delivery raced a detach; the radio never saw this frame
        self._in_air[tx] = power_mw
        self._energy_dirty = True
        if self._current_tx is None:
            if self._lock is None:
                if power_mw >= self._sensitivity_mw(tx.frame.rate):
                    interference = self.energy_mw() - power_mw
                    self._lock = _ReceptionLock(tx, power_mw, interference)
                    self._maybe_schedule_embedded_decode(self._lock)
                elif power_mw >= self._noise_mw:
                    # Detectable but undecodable: a genuine miss.  Frames
                    # below the noise floor are invisible to a real radio
                    # and are not counted — keeping this counter identical
                    # whether or not below-floor culling skipped them.
                    self.frames_missed += 1
            elif self.config.capture and self._captures_over_lock(tx, power_mw):
                # Message-in-message capture: the new frame drowns out the
                # ongoing reception; re-lock and count the old one lost.
                self.frames_missed += 1
                interference = self.energy_mw() - power_mw
                self._lock = _ReceptionLock(tx, power_mw, interference)
                self._maybe_schedule_embedded_decode(self._lock)
            else:
                # New arrival is interference for the ongoing reception.
                lock = self._lock
                interference = self.energy_mw() - lock.signal_mw
                if interference > lock.max_interference_mw:
                    lock.max_interference_mw = interference
        # While transmitting we are deaf: the frame is silently missed but
        # still contributes energy once our own transmission finishes.
        self._update_busy()
        if self.mac is not None:
            self.mac.on_energy_changed(self.energy_mw())

    def on_air_end(self, tx: Transmission) -> None:
        """A foreign transmission ended; maybe complete a reception."""
        if not self._attached:
            return  # detached while the frame was in flight
        self._in_air.pop(tx, None)
        self._energy_dirty = True
        lock = self._lock
        if lock is not None and lock.tx is tx:
            self._lock = None
            self._finish_reception(lock)
        self._update_busy()
        if self.mac is not None:
            self.mac.on_energy_changed(self.energy_mw())

    def _maybe_schedule_embedded_decode(self, lock: _ReceptionLock) -> None:
        """Partial packet decode of an embedded announcement (CO-MAP v1).

        The paper's first header implementation inserts an extra FCS
        after the sequence-number field "so that the PHY layer can pass
        the source and destination addresses to upper layers before the
        receipt of frame payload".  We model it by delivering the
        announcement once the address portion has been on the air —
        provided the lock survives (no capture/abort) and the
        interference seen so far leaves the header decodable.
        """
        frame = lock.tx.frame
        if not frame.meta.get("embedded_announce"):
            return
        from repro.mac.frames import EMBEDDED_DECODE_BYTES

        delay = frame.rate.airtime_ns(EMBEDDED_DECODE_BYTES)
        self.sim.schedule(delay, self._embedded_decode, lock)

    def _embedded_decode(self, lock: _ReceptionLock) -> None:
        """Deliver the announcement if the header portion decoded cleanly."""
        if self._lock is not lock or self.mac is None:
            return
        sir = lock.signal_mw / (lock.max_interference_mw + self._noise_mw)
        threshold = self._sir_threshold(lock.tx.frame.rate)
        if sir >= threshold:
            self.mac.on_header_overheard(lock.tx.frame, mw_to_dbm(lock.signal_mw))

    def _captures_over_lock(self, tx: Transmission, power_mw: float) -> bool:
        """Would ``tx`` decode with everything else (incl. the lock) as noise?"""
        if power_mw < self._sensitivity_mw(tx.frame.rate):
            return False
        interference = self.energy_mw() - power_mw
        threshold = self._sir_threshold(tx.frame.rate)
        return power_mw / (interference + self._noise_mw) >= threshold

    def _finish_reception(self, lock: _ReceptionLock) -> None:
        """Apply the SIR test and deliver or discard the frame."""
        frame = lock.tx.frame
        sir = lock.signal_mw / (lock.max_interference_mw + self._noise_mw)
        threshold = self._sir_threshold(frame.rate)
        rssi_dbm = mw_to_dbm(lock.signal_mw)
        if sir >= threshold:
            self.frames_received += 1
            if self.mac is not None:
                self.mac.on_frame_received(frame, rssi_dbm)
        else:
            self.frames_corrupted += 1
            if self.mac is not None:
                self.mac.on_frame_corrupted(frame)

    # ------------------------------------------------------------------
    # CCA transitions
    # ------------------------------------------------------------------
    def _update_busy(self) -> None:
        """Recompute CCA and notify the MAC on busy/idle edges."""
        busy = self.medium_busy()
        if busy == self._busy:
            return
        self._busy = busy
        if self.mac is None:
            return
        if busy:
            self.mac.on_medium_busy()
        else:
            self.mac.on_medium_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Radio {self.radio_id} at {self.position}>"
