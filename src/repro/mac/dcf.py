"""IEEE 802.11 DCF: CSMA/CA with binary exponential backoff.

This is the paper's baseline ("basic DCF") and the foundation the CO-MAP
MAC extends.  The state machine follows the standard's Distributed
Coordination Function as abstracted by Bianchi's model (which the paper
builds on):

* a station draws a backoff before **every** data transmission
  (``immediate_access`` exists but defaults off, matching both Bianchi's
  assumption and saturated operation);
* the backoff counter decrements only while the medium has been idle for
  DIFS (EIFS after a corrupted reception), freezes on busy, and resumes
  without a new draw;
* unicast data is acknowledged SIFS after reception; a missing ACK doubles
  the contention window (up to ``cw_max``) and retries up to
  ``retry_limit`` times;
* a **constant contention window** mode (``constant_cw=W`` drawing
  uniformly from ``[0, W-1]``) reproduces the constant-W networks of the
  paper's analytical model (Fig. 7), where ``tau = 2 / (W + 1)``.

Subclass hooks (used by :class:`repro.mac.comap.CoMapMac`) are the
underscore-prefixed template methods: frame composition, busy-ignore
predicate, ACK construction/outcome handling, and overhearing callbacks.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.mac.frames import BROADCAST, Frame, FrameType
from repro.obs.counters import SEP
from repro.mac.rate_control import FixedRate, RatePolicy
from repro.mac.timing import PhyTiming
from repro.phy.radio import Radio
from repro.phy.rates import RateTable
from repro.sim.engine import EventHandle, Simulator
from repro.sim.trace import TraceRecorder
from repro.util.rng import RngStreams

FlowId = Tuple[int, int]

#: Bucket bounds (ns) for per-flow MAC latency histograms: 250 µs to 5 s
#: covers one clean exchange up to deep-queue saturation delays.
LATENCY_BUCKETS_NS = (
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
    25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
    1_000_000_000, 2_500_000_000, 5_000_000_000,
)


@dataclass
class MacConfig:
    """Tunable DCF parameters.

    ``constant_cw`` (when set) replaces binary exponential backoff with a
    fixed window of ``W`` slots, drawing uniformly from ``[0, W-1]`` —
    exactly the constant-backoff-window networks of the paper's system
    model where ``tau = 2/(W+1)``.
    """

    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    queue_limit: int = 64
    use_eifs: bool = True
    immediate_access: bool = False
    constant_cw: Optional[int] = None
    #: Virtual carrier sense.  The paper disables RTS/CTS everywhere
    #: ("due to its overhead, inefficiency, and aggravation of the ET
    #: problem"); it is implemented here as a baseline so those claims
    #: can be *demonstrated* (see bench_rts_cts_baseline).
    use_rts_cts: bool = False
    #: Payloads at or above this size use the RTS/CTS exchange.
    rts_threshold_bytes: int = 0

    def __post_init__(self) -> None:
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError(f"invalid CW range [{self.cw_min}, {self.cw_max}]")
        if self.retry_limit < 0:
            raise ValueError("retry limit cannot be negative")
        if self.queue_limit < 1:
            raise ValueError("queue must hold at least one frame")
        if self.constant_cw is not None and self.constant_cw < 1:
            raise ValueError("constant CW must be at least 1 slot")


@dataclass
class Mpdu:
    """One queued MAC service data unit awaiting (re)transmission."""

    dst: int
    payload_bytes: int
    flow: FlowId
    seq: int
    enqueued_at: int
    attempts: int = 0
    app_meta: Optional[dict] = None


@dataclass
class LinkStats:
    """Sender- and receiver-side counters for one MAC entity.

    ``delivered_bytes``/``delivered_packets`` count *unique* payload
    received (duplicates from lost ACKs are detected via per-flow sequence
    sets and counted separately), which is the paper's goodput definition.
    """

    enqueued: int = 0
    queue_drops: int = 0
    data_transmissions: int = 0
    retransmissions: int = 0
    rts_sent: int = 0
    cts_sent: int = 0
    nav_reservations_honored: int = 0
    acks_sent: int = 0
    ack_skipped_busy: int = 0
    successes: int = 0
    retry_drops: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    duplicates: int = 0
    delivered_by_flow: Dict[FlowId, int] = field(default_factory=dict)
    delivered_packets_by_flow: Dict[FlowId, int] = field(default_factory=dict)

    def record_delivery(self, flow: FlowId, payload_bytes: int) -> None:
        """Account one unique delivered packet."""
        self.delivered_packets += 1
        self.delivered_bytes += payload_bytes
        self.delivered_by_flow[flow] = self.delivered_by_flow.get(flow, 0) + payload_bytes
        self.delivered_packets_by_flow[flow] = (
            self.delivered_packets_by_flow.get(flow, 0) + 1
        )

    def as_counter_dict(self) -> Dict[str, int]:
        """Scalar counters only (per-flow breakdowns stay internal)."""
        return {
            name: value
            for name, value in vars(self).items()
            if isinstance(value, int)
        }


class MacState(enum.Enum):
    """Coarse DCF sender state (ACK/CTS transmission is orthogonal)."""

    IDLE = "idle"
    CONTEND = "contend"
    TX = "tx"
    WAIT_CTS = "wait-cts"
    WAIT_ACK = "wait-ack"


class DcfMac:
    """An 802.11 DCF MAC entity bound to one :class:`Radio`."""

    #: Optional fault-injection hooks (see :mod:`repro.faults`).  ``None``
    #: (the class default) keeps the receive path branch-light: a single
    #: attribute check per decoded frame, no draws, no behavior change.
    fault_hooks = None

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        timing: PhyTiming,
        rates: RateTable,
        rngs: RngStreams,
        config: Optional[MacConfig] = None,
        rate_policy: Optional[RatePolicy] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.timing = timing
        self.rates = rates
        self.config = config or MacConfig()
        self.rate_policy = rate_policy or FixedRate(rates.top)
        self.trace = trace if trace is not None else TraceRecorder()
        self.stats = LinkStats()
        self._rng = rngs.stream("backoff", node_id)
        radio.bind_mac(self)

        self._queue: Deque[Mpdu] = deque()
        self._head: Optional[Mpdu] = None
        self._state = MacState.IDLE
        self._cw = self.config.cw_min
        self._backoff_slots: Optional[int] = None
        self._countdown_started_at: Optional[int] = None
        self._ifs_handle: Optional[EventHandle] = None
        self._countdown_handle: Optional[EventHandle] = None
        self._ack_timeout_handle: Optional[EventHandle] = None
        self._cts_timeout_handle: Optional[EventHandle] = None
        self._nav_until: int = 0
        self._nav_resume_handle: Optional[EventHandle] = None
        self._need_eifs = False
        self._tx_train: List[Frame] = []
        self._rts_data_frame: Optional[Frame] = None
        self._suspended = False
        self._tx_seq = itertools.count(0)
        self._seq_by_flow: Dict[FlowId, itertools.count] = {}
        self._rx_seen: Dict[FlowId, Set[int]] = {}
        # Per-flow enqueue-to-delivery latency histograms, created lazily
        # in the registry handed to register_counters (None until then).
        self._registry = None
        self._latency_hists: Dict[FlowId, object] = {}
        #: Upper-layer delivery callback: fn(frame) on unique reception.
        self.on_deliver: Optional[Callable[[Frame], None]] = None
        #: Called whenever a queue slot frees up (sources use it to refill).
        self.on_queue_space: Optional[Callable[[], None]] = None

    def register_counters(self, registry) -> None:
        """Expose this MAC's counters through a :class:`CounterRegistry`.

        Pull-based: the hot path keeps its plain attribute increments
        and the registry polls :meth:`LinkStats.as_counter_dict` only at
        snapshot time.  Same-prefix sources from every node are summed,
        giving network-wide totals.
        """
        self._registry = registry
        registry.register_source("mac", self.stats.as_counter_dict)

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def enqueue(
        self,
        dst: int,
        payload_bytes: int,
        flow: Optional[FlowId] = None,
        app_meta: Optional[dict] = None,
    ) -> bool:
        """Queue one MSDU for ``dst``.  Returns False on queue overflow.

        ``app_meta`` rides along into the data frame's ``meta["app"]`` and
        is delivered to the receiver's upper layer — the transport
        substrate (:mod:`repro.net.traffic`) uses it for TCP-lite headers.
        """
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if len(self._queue) >= self.config.queue_limit:
            self.stats.queue_drops += 1
            return False
        flow = flow or (self.node_id, dst)
        counter = self._seq_by_flow.setdefault(flow, itertools.count(0))
        mpdu = Mpdu(
            dst=dst,
            payload_bytes=payload_bytes,
            flow=flow,
            seq=next(counter),
            enqueued_at=self.sim.now,
            app_meta=app_meta,
        )
        self._queue.append(mpdu)
        self.stats.enqueued += 1
        if self._state is MacState.IDLE and not self._suspended:
            self._start_next()
        return True

    @property
    def queue_length(self) -> int:
        """Number of MSDUs waiting behind the current head."""
        return len(self._queue)

    @property
    def state(self) -> MacState:
        """Current coarse sender state (inspected by tests)."""
        return self._state

    def preferred_payload(self) -> Optional[int]:
        """Advised MSDU payload size; ``None`` means "no preference".

        The base DCF never advises; the CO-MAP MAC overrides this with the
        HT-aware packet-size adaptation of Section IV-D.
        """
        return None

    # ------------------------------------------------------------------
    # Sender state machine
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Pick the next MSDU and begin contention, or go idle."""
        assert self._head is None
        head = self._select_next()
        if head is None:
            self._state = MacState.IDLE
            return
        self._head = head
        self._cw = self.config.cw_min
        self._begin_contention(first_attempt=True)
        if self.on_queue_space is not None:
            self.on_queue_space()

    def _select_next(self) -> Optional[Mpdu]:
        """Template method: choose the next MSDU (FIFO by default)."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def _begin_contention(self, first_attempt: bool) -> None:
        """Draw a backoff and start (or wait for) the countdown."""
        self._state = MacState.CONTEND
        if (
            first_attempt
            and self.config.immediate_access
            and not self.radio.medium_busy()
            and self._backoff_slots is None
        ):
            # 802.11 allows transmission after a bare DIFS when the medium
            # was idle; disabled by default (see module docstring).
            self._backoff_slots = 0
        else:
            self._backoff_slots = self._draw_backoff()
        self._resume_contention()

    def _draw_backoff(self) -> int:
        """Uniform draw from the current contention window."""
        if self.config.constant_cw is not None:
            return int(self._rng.integers(0, self.config.constant_cw))
        return int(self._rng.integers(0, self._cw + 1))

    def _resume_contention(self) -> None:
        """Arm the IFS wait if the medium permits counting down."""
        if self._state is not MacState.CONTEND:
            return
        if self._ifs_handle is not None or self._countdown_handle is not None:
            return  # already counting or waiting out the IFS
        if self._nav_active():
            return  # virtual carrier sense: wait out the reservation
        if self.radio.medium_busy() and not self._should_ignore_busy():
            return  # stay frozen until on_medium_idle
        ifs = self._current_ifs_ns()
        self._ifs_handle = self.sim.schedule(ifs, self._ifs_elapsed)

    def _current_ifs_ns(self) -> int:
        """DIFS normally; EIFS after observing a corrupted frame."""
        if self._need_eifs and self.config.use_eifs:
            return self.timing.eifs_ns(self.rates.base)
        return self.timing.difs_ns

    def _ifs_elapsed(self) -> None:
        """The medium stayed idle through the IFS; start the slot countdown."""
        self._ifs_handle = None
        self._need_eifs = False
        assert self._backoff_slots is not None
        if self._backoff_slots <= 0:
            self._backoff_expired()
            return
        self._countdown_started_at = self.sim.now
        self._countdown_handle = self.sim.schedule(
            self._backoff_slots * self.timing.slot_ns, self._backoff_expired
        )

    def _backoff_expired(self) -> None:
        """Backoff reached zero: transmit the head MSDU."""
        self._countdown_handle = None
        self._countdown_started_at = None
        self._backoff_slots = None
        self._transmit_head()

    def _freeze_contention(self) -> None:
        """Medium went busy: stop the countdown, crediting whole idle slots."""
        if self._ifs_handle is not None:
            self._ifs_handle.cancel()
            self._ifs_handle = None
        if self._countdown_handle is not None:
            assert self._countdown_started_at is not None
            assert self._backoff_slots is not None
            elapsed = self.sim.now - self._countdown_started_at
            consumed = elapsed // self.timing.slot_ns
            self._backoff_slots = max(0, self._backoff_slots - int(consumed))
            self._countdown_handle.cancel()
            self._countdown_handle = None
            self._countdown_started_at = None

    def _transmit_head(self) -> None:
        """Compose and send the frame train for the head MSDU."""
        assert self._head is not None
        if self.radio.transmitting:
            # Half-duplex guard: an ACK of ours is still on the air (the
            # countdown raced its start).  Go again once it completes.
            self._state = MacState.CONTEND
            self._backoff_slots = 0
            return
        self._state = MacState.TX
        head = self._head
        head.attempts += 1
        if head.attempts > 1:
            self.stats.retransmissions += 1
        rate = self.rate_policy.select(head.dst)
        if self._rts_applies(head):
            self._send_rts(head, rate)
            return
        frames = self._compose_frames(head, rate)
        self._tx_train = list(frames)
        self._send_next_in_train()

    # ------------------------------------------------------------------
    # RTS/CTS (virtual carrier sense)
    # ------------------------------------------------------------------
    def _rts_applies(self, head: Mpdu) -> bool:
        """Should this attempt be protected by an RTS/CTS exchange?"""
        return (
            self.config.use_rts_cts
            and head.dst != BROADCAST
            and head.payload_bytes >= self.config.rts_threshold_bytes
        )

    def _send_rts(self, head: Mpdu, rate) -> None:
        """Open the exchange with an RTS carrying the full reservation."""
        data = self._build_data_frame(head, rate)
        self._rts_data_frame = data
        sifs = self.timing.sifs_ns
        cts_air = self.timing.cts_airtime_ns(self.rates.base)
        remaining = (
            sifs + cts_air
            + sifs + self.timing.frame_airtime_ns(data)
            + sifs + self.timing.ack_airtime_ns(self.rates.base)
        )
        rts = Frame(
            kind=FrameType.RTS, src=self.node_id, dst=head.dst,
            rate=self.rates.base, seq=head.seq, flow=head.flow,
            meta={"dur": remaining},
        )
        self.stats.rts_sent += 1
        self.radio.start_transmission(rts)

    def _accept_rts(self, rts: Frame) -> None:
        """Answer an RTS addressed to us with a CTS after SIFS."""
        cts_air = self.timing.cts_airtime_ns(self.rates.base)
        remaining = max(int(rts.meta.get("dur", 0)) - self.timing.sifs_ns - cts_air, 0)
        cts = Frame(
            kind=FrameType.CTS, src=self.node_id, dst=rts.src,
            rate=self.rates.base, seq=rts.seq, flow=rts.flow,
            meta={"dur": remaining},
        )
        self.sim.schedule(self.timing.sifs_ns, self._send_control, cts)

    def _send_control(self, frame: Frame) -> None:
        """Transmit a control response unless the radio is mid-frame."""
        if self.radio.transmitting:
            self.stats.ack_skipped_busy += 1
            return
        self.radio.start_transmission(frame)

    def _accept_cts(self, cts: Frame) -> None:
        """CTS for our pending RTS: clear to send the data train."""
        if self._state is not MacState.WAIT_CTS or self._head is None:
            return
        if cts.flow != self._head.flow or cts.seq != self._head.seq:
            return
        if self._cts_timeout_handle is not None:
            self._cts_timeout_handle.cancel()
            self._cts_timeout_handle = None
        self.sim.schedule(self.timing.sifs_ns, self._launch_protected_data)

    def _launch_protected_data(self) -> None:
        """Send the data frame the CTS cleared."""
        if self._head is None or self.radio.transmitting:
            return
        self._state = MacState.TX
        self._tx_train = [self._rts_data_frame]
        self._send_next_in_train()

    def _cts_timeout(self, frame: Frame) -> None:
        """No CTS: treat like a missing ACK (collision on the RTS)."""
        self._cts_timeout_handle = None
        self._report_rate_outcome(frame.dst, success=False)
        self._handle_ack_timeout(frame)

    # ------------------------------------------------------------------
    # NAV (virtual carrier sense state)
    # ------------------------------------------------------------------
    def _nav_active(self) -> bool:
        """True while a decoded reservation covers the current instant."""
        return self.sim.now < self._nav_until

    def _set_nav(self, duration_ns: int) -> None:
        """Extend the NAV and freeze/resume contention accordingly."""
        if duration_ns <= 0:
            return
        until = self.sim.now + int(duration_ns)
        if until <= self._nav_until:
            return
        self._nav_until = until
        if self._state is MacState.CONTEND:
            self._freeze_contention()
        if self._nav_resume_handle is not None:
            self._nav_resume_handle.cancel()
        self._nav_resume_handle = self.sim.schedule_at(until, self._nav_expired)

    def _nav_expired(self) -> None:
        """The reserved period ended; contention may resume."""
        self._nav_resume_handle = None
        if self._state is MacState.CONTEND:
            self._resume_contention()

    def _compose_frames(self, head: Mpdu, rate) -> List[Frame]:
        """Template method: the frames sent back-to-back for one attempt.

        Base DCF sends just the data frame; CO-MAP prepends its
        announcement header.
        """
        return [self._build_data_frame(head, rate)]

    def _build_data_frame(self, head: Mpdu, rate) -> Frame:
        """Materialize the data frame for the current attempt."""
        frame = Frame(
            kind=FrameType.DATA,
            src=self.node_id,
            dst=head.dst,
            rate=rate,
            payload_bytes=head.payload_bytes,
            seq=head.seq,
            flow=head.flow,
            retry=head.attempts - 1,
        )
        if head.app_meta is not None:
            frame.meta["app"] = head.app_meta
        # Enqueue timestamp for the receiver-side latency histogram; meta
        # never affects physics, and the Mpdu's stamp survives retries so
        # the measured latency includes queueing and retransmissions.
        frame.meta["enq"] = head.enqueued_at
        return frame

    def _send_next_in_train(self) -> None:
        """Transmit the next frame of the back-to-back train."""
        frame = self._tx_train.pop(0)
        if frame.kind is FrameType.DATA:
            self.stats.data_transmissions += 1
        if self.trace.wants("mac"):
            self.trace.record("mac", "tx", node=self.node_id, frame=frame.describe())
        self.radio.start_transmission(frame)

    # ------------------------------------------------------------------
    # PHY indications
    # ------------------------------------------------------------------
    def on_tx_complete(self, frame: Frame) -> None:
        """Radio callback: our own frame finished its airtime."""
        if self._suspended:
            return  # detached mid-flight; suspend() already reset the machine
        if frame.kind is FrameType.ACK or frame.kind is FrameType.CTS:
            self._after_control_tx()
            return
        if frame.kind is FrameType.RTS:
            self._state = MacState.WAIT_CTS
            cts_air = self.timing.cts_airtime_ns(self.rates.base)
            timeout = self.timing.sifs_ns + cts_air + self.timing.ack_timeout_slack_ns
            self._cts_timeout_handle = self.sim.schedule(
                timeout, self._cts_timeout, self._rts_data_frame
            )
            return
        if frame.kind is FrameType.COMAP_HEADER:
            # More of the train (the data frame) follows immediately.
            if self._tx_train:
                self._send_next_in_train()
            return
        # Data frame.
        if self._tx_train:
            self._send_next_in_train()
            return
        if frame.is_broadcast:
            self._finish_attempt(success=True)
            return
        self._state = MacState.WAIT_ACK
        timeout = self.timing.ack_timeout_ns(self.rates.base)
        self._ack_timeout_handle = self.sim.schedule(timeout, self._ack_timeout, frame)

    def _after_control_tx(self) -> None:
        """Resume contention after an ACK we sent on behalf of a receiver."""
        if self._state is MacState.CONTEND:
            self._resume_contention()

    def on_frame_received(self, frame: Frame, rssi_dbm: float) -> None:
        """Radio callback: a frame was decoded successfully."""
        if self.fault_hooks is not None and self.fault_hooks.drop_rx(self.node_id, frame):
            return
        if frame.kind is FrameType.DATA:
            if frame.dst == self.node_id:
                self._accept_data(frame, rssi_dbm)
            else:
                self.on_data_overheard(frame, rssi_dbm)
            return
        if frame.kind is FrameType.ACK:
            if frame.dst == self.node_id:
                self._accept_ack(frame)
            return
        if frame.kind is FrameType.RTS:
            if frame.dst == self.node_id:
                self.stats.cts_sent += 1
                self._accept_rts(frame)
            else:
                self.stats.nav_reservations_honored += 1
                self._set_nav(int(frame.meta.get("dur", 0)))
            return
        if frame.kind is FrameType.CTS:
            if frame.dst == self.node_id:
                self._accept_cts(frame)
            else:
                self.stats.nav_reservations_honored += 1
                self._set_nav(int(frame.meta.get("dur", 0)))
            return
        if frame.kind is FrameType.COMAP_HEADER:
            self.on_header_overheard(frame, rssi_dbm)

    def _accept_data(self, frame: Frame, rssi_dbm: float) -> None:
        """Deliver unique payload upward and schedule the ACK."""
        flow = frame.flow or (frame.src, frame.dst)
        seen = self._rx_seen.setdefault(flow, set())
        if frame.seq in seen:
            self.stats.duplicates += 1
        else:
            seen.add(frame.seq)
            self.stats.record_delivery(flow, frame.payload_bytes)
            self._observe_latency(flow, frame)
            if self.on_deliver is not None:
                self.on_deliver(frame)
        ack = self._build_ack(frame)
        self.sim.schedule(self.timing.sifs_ns, self._send_ack, ack)

    def _observe_latency(self, flow: FlowId, frame: Frame) -> None:
        """Record enqueue-to-delivery latency for a unique reception.

        Deterministic sim-time arithmetic on the sender's meta stamp —
        no RNG, no scheduling — so enabling the histograms can never
        perturb the physics.  Quantiles (the C-SR studies' p99) are
        in-process queries on the bucketed histogram.
        """
        if self._registry is None:
            return
        enqueued_at = frame.meta.get("enq")
        if enqueued_at is None:
            return
        hist = self._latency_hists.get(flow)
        if hist is None:
            hist = self._registry.histogram(
                f"latency{SEP}{flow[0]}->{flow[1]}",
                buckets=LATENCY_BUCKETS_NS,
            )
            self._latency_hists[flow] = hist
        hist.observe(self.sim.now - enqueued_at)

    def _build_ack(self, data_frame: Frame) -> Frame:
        """Template method: construct the ACK for a received data frame."""
        return Frame(
            kind=FrameType.ACK,
            src=self.node_id,
            dst=data_frame.src,
            rate=self.rates.base,
            seq=data_frame.seq,
            flow=data_frame.flow,
        )

    def _send_ack(self, ack: Frame) -> None:
        """Put the ACK on the air unless the radio is mid-transmission."""
        if self.radio.transmitting:
            self.stats.ack_skipped_busy += 1
            return
        self.stats.acks_sent += 1
        self.radio.start_transmission(ack)

    def _accept_ack(self, ack: Frame) -> None:
        """Handle an ACK addressed to us."""
        if self._state is not MacState.WAIT_ACK or self._head is None:
            return
        if ack.flow != self._head.flow or ack.seq != self._head.seq:
            self._on_foreign_ack(ack)
            return
        if self._ack_timeout_handle is not None:
            self._ack_timeout_handle.cancel()
            self._ack_timeout_handle = None
        self._report_rate_outcome(self._head.dst, success=True)
        self._finish_attempt(success=True)

    def _on_foreign_ack(self, ack: Frame) -> None:
        """Template method: ACK for us but not for the head (SR-ARQ uses it)."""

    def _ack_timeout(self, frame: Frame) -> None:
        """No ACK arrived in time for ``frame``."""
        self._ack_timeout_handle = None
        self._report_rate_outcome(frame.dst, success=False)
        self._handle_ack_timeout(frame)

    def _report_rate_outcome(self, dst: int, success: bool) -> None:
        """Template method: feed the ACK outcome to the rate controller."""
        self.rate_policy.report(dst, success=success)

    def _handle_ack_timeout(self, frame: Frame) -> None:
        """Template method: stop-and-wait retry with BEB (base behaviour)."""
        assert self._head is not None
        if self._head.attempts > self.config.retry_limit:
            self.stats.retry_drops += 1
            self._finish_attempt(success=False)
            return
        if self.config.constant_cw is None:
            self._cw = min(2 * (self._cw + 1) - 1, self.config.cw_max)
        self._state = MacState.CONTEND
        self._backoff_slots = self._draw_backoff()
        self._resume_contention()

    def _finish_attempt(self, success: bool) -> None:
        """Head MSDU leaves the MAC (delivered or dropped); move on."""
        if success:
            self.stats.successes += 1
        self._head = None
        self._state = MacState.IDLE
        self._start_next()

    # ------------------------------------------------------------------
    # Churn: suspend / resume (node leaving and re-joining mid-run)
    # ------------------------------------------------------------------
    def _cancel_timers(self) -> None:
        """Cancel every pending MAC timer.  Idempotent."""
        for name in (
            "_ifs_handle",
            "_countdown_handle",
            "_ack_timeout_handle",
            "_cts_timeout_handle",
            "_nav_resume_handle",
        ):
            handle = getattr(self, name)
            if handle is not None:
                handle.cancel()
                setattr(self, name, None)

    def suspend(self) -> None:
        """Take the MAC off the air: the node left the network.

        Cancels all pending timers, requeues the in-flight head MSDU at
        the front of the queue (so :meth:`resume` retries it first, with
        a fresh attempt history), and parks the state machine.  Safe to
        call mid-transmission: the radio's detach path stops delivering
        air events, and the :attr:`_suspended` guard swallows any
        ``on_tx_complete`` for a frame already on the air.
        """
        if self._suspended:
            return
        self._suspended = True
        self._cancel_timers()
        self._countdown_started_at = None
        self._backoff_slots = None
        self._tx_train = []
        self._rts_data_frame = None
        self._nav_until = 0
        self._need_eifs = False
        if self._head is not None:
            head = self._head
            head.attempts = 0
            self._head = None
            self._queue.appendleft(head)
        self._state = MacState.IDLE
        self._cw = self.config.cw_min

    def resume(self) -> None:
        """Bring a suspended MAC back on the air (the node re-joined)."""
        if not self._suspended:
            return
        self._suspended = False
        if self._queue and self._state is MacState.IDLE and self._head is None:
            self._start_next()

    @property
    def suspended(self) -> bool:
        """True while the node is detached from the network."""
        return self._suspended

    # ------------------------------------------------------------------
    # Medium state
    # ------------------------------------------------------------------
    def on_medium_busy(self) -> None:
        """Radio callback: CCA went busy."""
        if self._state is not MacState.CONTEND:
            return
        if self._should_ignore_busy():
            return
        self._freeze_contention()

    def on_medium_idle(self) -> None:
        """Radio callback: CCA went idle."""
        if self._state is MacState.CONTEND:
            self._resume_contention()

    def _should_ignore_busy(self) -> bool:
        """Template method: CO-MAP keeps counting through exposed traffic."""
        return False

    def on_frame_corrupted(self, frame: Frame) -> None:
        """Radio callback: a reception failed the SIR test."""
        self._need_eifs = True

    def on_energy_changed(self, energy_mw: float) -> None:
        """Radio callback: in-air energy changed (CO-MAP RSSI monitor hook)."""

    def on_header_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        """Template method: a CO-MAP announcement header was decoded."""

    def on_data_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        """Template method: a data frame for someone else was decoded."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DcfMac node={self.node_id} state={self._state.value}>"
