"""The shared wireless medium.

The :class:`Channel` owns the set of in-flight :class:`Transmission`\\ s.
When a radio starts transmitting, the channel draws a received power for
every other attached radio from the propagation model (one shadowing
realization per frame by default — this is what makes the simulated
packet-reception rate converge to the paper's eq. 3) and notifies each
radio, which updates its clear-channel assessment and reception state.

Shadowing modes
---------------

``per_frame``
    A fresh ``X_sigma`` per (transmitter, receiver, frame).  Default;
    realizes the statistical PRR model.
``per_link``
    One draw per ordered (transmitter, receiver) pair, fixed for the whole
    run.  Useful for deterministic unit tests and for studying stable
    topologies.
``none``
    Pure deterministic path loss.

Per-link RNG substreams
-----------------------

Shadowing draws come from a *per-(transmitter, receiver)* generator,
keyed through :meth:`repro.util.rng.RngStreams.substream` with the same
SHA-256 :func:`~repro.util.rng.derive_seed` derivation the parallel
sweep executor uses for task seeds.  Each ordered pair owns an
independent counter-based stream, so consuming (or *skipping*) draws on
one link can never perturb any other link's randomness.  That
independence is the precondition for below-floor culling: a culled
link's draw is simply never taken, and every other link still sees
exactly the sequence it would have seen in an exhaustive run.

Below-floor interference culling
--------------------------------

For every (sender, receiver) pair the channel caches the deterministic
mean received power (path loss only — invalidated per radio on
:meth:`repro.phy.radio.Radio.move_to`).  When that mean sits more than
``cull_margin_db`` below **both** the receiver's noise floor and its
carrier-sense threshold, the receiver is skipped entirely for that
frame: no shadowing draw, no ``rx_power_mw`` entry, and neither the
``on_air_start`` nor the ``on_air_end`` event is scheduled.  The margin
defaults to 6σ of the shadowing model (20 dB when σ = 0), can be set
explicitly via the ``REPRO_CULL_MARGIN_DB`` environment knob, and
``REPRO_CULL_MARGIN_DB=off`` restores the old exhaustive path.  Culled
notifications are counted in the ``channel/culled_links`` counter.

Spatial candidate generation
----------------------------

Culling skips the *work* for a below-floor receiver but still *visits*
every attached radio per frame.  On a floor much wider than a sender's
*reach radius* — the provably sound cull boundary derived by
:meth:`repro.phy.propagation.LogNormalShadowing.reach_radius_m` from
the sender's transmit power, the weakest ``min(noise_floor, T_cs)``
threshold ever attached to the band, and the culling margin — the
channel instead maintains a :class:`repro.phy.spatial.SpatialIndex`
over attached radios and sweeps only the radios inside the sender's
reach disk.  The choice is taken once per channel, from its topology,
by :func:`repro.phy.spatial.grid_pays_off` (at
:meth:`repro.net.network.Network.finalize`, or lazily at the first
transmission) and then frozen.  Every radio the grid skips would have
failed the cull test, and every candidate still runs the exact cull
test, so per-node outcomes are bit-identical to the exhaustive sweep;
only the ``channel/spatial_*`` counters record the difference.
Candidates are re-sorted into attach order before delivery, preserving
the notification order contract.  The grid needs an active culling
margin — with ``cull_margin_db=None`` there is no sound radius, and the
exhaustive loop always runs.  The weakest threshold is never relaxed on
detach (a stale, lower value only enlarges the radius — sound, and it
keeps detach O(1)); per-radio configs are assumed fixed after attach,
except transmit power, which enters per-sender radii at query time.

Linear-domain power caches (the frame hot path)
-----------------------------------------------

Surviving (sender, receiver) notifications dominate dense topologies
where nothing can be culled, and each one historically paid a
``10 ** (x / 10)`` per frame.  The pair cache therefore stores the
**linear-domain (mW)** mean power alongside the dB value, per-frame
shadowing composes as a single multiply
(``mean_mw * db_to_ratio(offset)``), and ``per_link`` mode caches the
fully-composed rx power per pair.  The discipline is *cache, never
re-derive*: every cached value is produced by exactly the expression
the uncached path evaluates, so results are bit-identical either way.
``REPRO_HOTPATH=off`` (sampled at channel construction; see
:mod:`repro.util.hotpath`) forces the full re-derivation path —
distance, ``math.log10`` path loss, and dBm→mW conversion per link per
frame — used by the equivalence tests and as the bench baseline.

The hot path also coalesces air notifications: a frame's per-receiver
``on_air_start`` (and ``on_air_end``) events all share one timestamp
and consecutive sequence numbers, so no other event can ever fire
between them — one engine event delivering all receivers in the same
order is exactly equivalent and cuts heap traffic from ``2N + 2`` to
4 events per frame.  Per-node outcomes are bit-identical either way
(``tests/test_hotpath_equivalence.py``); only ``events_fired`` and the
heap-pressure counters differ.
"""

from __future__ import annotations

import math
import os
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple, Union, ValuesView,
)

from repro.phy import spatial  # grid_pays_off via the module: tests patch it
from repro.phy.propagation import LogNormalShadowing
from repro.phy.spatial import SpatialIndex, record_grid_built, record_reach_radius
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.util.hotpath import hotpath_enabled
from repro.util.rng import RngStreams
from repro.util.units import db_to_ratio, dbm_to_mw

if TYPE_CHECKING:  # avoid a phy <-> mac import cycle; hints only
    from repro.mac.frames import Frame
    from repro.mac.timing import PhyTiming
    from repro.phy.radio import Radio

#: Valid values for the channel's ``shadowing_mode``.
SHADOWING_MODES = ("per_frame", "per_link", "none")

#: Environment knob: culling margin in dB, or ``off`` for the exhaustive path.
CULL_MARGIN_ENV = "REPRO_CULL_MARGIN_DB"

#: Default margin as a multiple of the shadowing sigma.
CULL_SIGMA_FACTOR = 6.0

#: Default margin (dB) when the propagation model has no shadowing term.
#: With σ = 0 there is no randomness to guard against, but culled links
#: still drop their (deterministic) interference energy; 20 dB keeps each
#: culled contribution at ≤ 1 % of the receiver's noise floor.
CULL_DETERMINISTIC_MARGIN_DB = 20.0


def resolve_cull_margin_db(
    sigma_db: float, override: Union[float, str, None] = None
) -> Optional[float]:
    """Resolve the culling margin: explicit override > env knob > default.

    Returns the margin in dB, or ``None`` when culling is disabled
    (``"off"``, case-insensitive, or any negative value).  With no
    override and no ``REPRO_CULL_MARGIN_DB`` in the environment, the
    default is ``6 * sigma_db`` (``20`` dB for a shadowing-free model).
    """
    value: Union[float, str, None] = override
    if value is None:
        raw = os.environ.get(CULL_MARGIN_ENV, "").strip()
        if raw:
            value = raw
        elif sigma_db > 0.0:
            return CULL_SIGMA_FACTOR * float(sigma_db)
        else:
            return CULL_DETERMINISTIC_MARGIN_DB
    if isinstance(value, str):
        if value.lower() == "off":
            return None
        value = float(value)  # a malformed knob should fail loudly
    margin = float(value)
    return None if margin < 0.0 else margin


class _PairCache:
    """``(tx_id, rx_id) -> value`` cache with O(degree) invalidation.

    Values are floats or small tuples of floats — the mean-power cache
    stores ``(dbm, mw)`` so the linear-domain conversion is computed
    once per pair rather than once per frame.

    A secondary index maps each radio id to the set of cached keys it
    participates in, so :meth:`invalidate` (called on every
    ``Radio.move_to``) touches only that radio's links instead of
    scanning the whole table — mobility ticks stay O(N) rather than
    degrading quadratically with the link count.
    """

    __slots__ = ("_values", "_by_radio")

    def __init__(self) -> None:
        self._values: Dict[Tuple[int, int], Any] = {}
        self._by_radio: Dict[int, Set[Tuple[int, int]]] = {}

    def get(self, key: Tuple[int, int]) -> Optional[Any]:
        return self._values.get(key)

    def put(self, key: Tuple[int, int], value: Any) -> None:
        self._values[key] = value
        for radio_id in key:
            self._by_radio.setdefault(radio_id, set()).add(key)

    def invalidate(self, radio_id: int) -> int:
        """Drop every cached entry involving ``radio_id``; returns the count."""
        keys = self._by_radio.pop(radio_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._values.pop(key, None) is not None:
                dropped += 1
            for other in key:
                if other != radio_id:
                    peers = self._by_radio.get(other)
                    if peers is not None:
                        peers.discard(key)
                        if not peers:
                            del self._by_radio[other]
        return dropped

    def __len__(self) -> int:
        return len(self._values)


class Transmission:
    """One frame in flight: who sent it, when it ends, and its per-radio power."""

    __slots__ = ("frame", "sender", "start_ns", "end_ns", "rx_power_mw")

    def __init__(self, frame: "Frame", sender: "Radio", start_ns: int, end_ns: int):
        self.frame = frame
        self.sender = sender
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: Received power in mW at each listening radio, keyed by radio id.
        #: Radios culled below the noise floor have no entry — this dict is
        #: the authoritative set of radios that observe the transmission.
        self.rx_power_mw: Dict[int, float] = {}

    @property
    def duration_ns(self) -> int:
        """Airtime of the transmission."""
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transmission {self.frame.describe()} [{self.start_ns},{self.end_ns}]>"


class Channel:
    """Broadcast medium connecting all radios of one frequency band."""

    def __init__(
        self,
        sim: Simulator,
        propagation: LogNormalShadowing,
        timing: "PhyTiming",
        rngs: RngStreams,
        shadowing_mode: str = "per_frame",
        trace: Optional[TraceRecorder] = None,
        band: int = 0,
        air_latency_ns: int = 1_000,
        registry=None,
        cull_margin_db: Union[float, str, None] = None,
    ) -> None:
        if shadowing_mode not in SHADOWING_MODES:
            raise ValueError(
                f"shadowing_mode must be one of {SHADOWING_MODES}, got {shadowing_mode!r}"
            )
        self.sim = sim
        self.propagation = propagation
        self.timing = timing
        self.shadowing_mode = shadowing_mode
        #: Frequency band index.  Radios only interact when they share a
        #: Channel object, so non-overlapping bands are modeled as separate
        #: channels — matching the paper's floor where "only the ones using
        #: the same frequency band are considered".
        self.band = int(band)
        #: Propagation + CCA detection latency: a transmission becomes
        #: observable at other radios only after this delay.  Without it,
        #: two stations whose backoff counters expire in the same slot
        #: would serialize instead of colliding (zero-latency carrier
        #: sense), and DCF would be collision-free — wildly unphysical.
        #: 1 us approximates aCCATime/propagation at WLAN ranges.
        self.air_latency_ns = int(air_latency_ns)
        if self.air_latency_ns < 0:
            raise ValueError("air latency cannot be negative")
        # NB: "trace or ..." would discard an *empty* recorder (len == 0 is
        # falsy), so test identity explicitly.
        self.trace = trace if trace is not None else TraceRecorder()
        self.trace.bind_clock(lambda: sim.now)
        self._rngs = rngs
        #: Resolved culling margin in dB, or None for the exhaustive path.
        self.cull_margin_db = resolve_cull_margin_db(
            propagation.sigma_db, cull_margin_db
        )
        #: Attached radios, keyed by id.  Insertion order *is* attach
        #: order — the dict doubles as the ordered radio store, so
        #: detach is an O(1) pop that preserves the iteration order of
        #: every remaining radio (pinned by tests/test_spatial.py).
        self._radios_by_id: Dict[int, "Radio"] = {}
        #: Monotone per-radio attach sequence numbers: spatial candidate
        #: sets sort by these to restore attach-order delivery.  A
        #: re-attached radio gets a fresh (higher) number, matching its
        #: new position at the end of the dict's insertion order.
        self._attach_seq: Dict[int, int] = {}
        self._next_attach_seq = 0
        self._active: List[Transmission] = []
        #: True until the grid-vs-exhaustive choice is taken (see
        #: :meth:`prepare_spatial`).  Without a culling margin there is
        #: no sound reach radius, so the exhaustive sweep is the only
        #: option and nothing is left to decide.
        self._grid_pending = self.cull_margin_db is not None
        #: The grid, or None while undecided or when the sweep won.
        self._spatial: Optional[SpatialIndex] = None
        #: Weakest ``min(noise_floor, T_cs)`` ever attached to the band:
        #: the threshold the reach radius must stay sound against.
        #: Monotone non-increasing — never relaxed on detach (a stale,
        #: lower value only enlarges radii; see the module docstring).
        self._weakest_threshold_dbm = math.inf
        #: Strongest attach-time transmit power (grid choice and cell size).
        self._max_tx_power_dbm = -math.inf
        #: Memoized reach radius per transmit power; cleared whenever
        #: the weakest threshold tightens.
        self._reach_memo: Dict[float, float] = {}
        self.spatial_queries = 0
        self.spatial_candidates = 0
        self.spatial_skipped = 0
        self._registry = None
        #: Snapshot of the ``REPRO_HOTPATH`` knob (see repro.util.hotpath);
        #: sampled at construction so the per-frame path branches on a
        #: plain attribute.
        self._hotpath = hotpath_enabled()
        #: Cached per-link shadowing offsets (``per_link`` mode only).
        #: Semantic state, not a perf cache: ``per_link`` means one draw
        #: per pair for the whole run, so this survives REPRO_HOTPATH=off.
        self._link_shadowing_db = _PairCache()
        #: Cached ``(mean_dbm, mean_mw)`` per (tx, rx) pair (hot path only).
        self._mean_rx_cache = _PairCache()
        #: Cached fully-composed rx power in mW (``per_link`` + hot path).
        self._link_rx_mw = _PairCache()
        #: Memoized per-link shadowing generators (identity per (tx, rx);
        #: avoids rebuilding the substream key tuple per frame).
        self._link_rng_memo: Dict[Tuple[int, int], Any] = {}
        #: Counters for diagnostics and tests.
        self.frames_sent = 0
        self.links_culled = 0
        if registry is not None:
            self.register_counters(registry)

    def register_counters(self, registry) -> None:
        """Expose medium-level counters under the ``channel`` prefix.

        Per-band channels share the prefix, so a multi-band network's
        snapshot reports medium-wide totals (``cull_margin_db`` included:
        with several bands the snapshot sums the per-band margins, so
        divide by ``len(network.channels)`` to recover the setting).
        """
        self._registry = registry
        registry.register_source("channel", self.counters)

    def counters(self) -> Dict[str, float]:
        """Registry-source view of this band's counters.

        ``culled_links`` counts per-radio notifications skipped by
        below-floor culling.  Settings of a disabled feature are
        omitted, never reported as sentinels: ``cull_margin_db`` (the
        resolved margin) appears only while culling is on, and the grid
        geometry only on a band that chose the grid.
        """
        counters = {
            "frames_sent": self.frames_sent,
            "active_transmissions": len(self._active),
            "radios": len(self._radios_by_id),
            "culled_links": self.links_culled,
            # Spatial-index activity (zeros on the exhaustive path):
            # queries = grid lookups, candidates = radios those lookups
            # returned (after sender exclusion), skipped = attached
            # radios the queries never visited.  Every skipped radio is
            # a link the cull test would have rejected, and grid skips
            # are charged into ``culled_links`` per frame, so that
            # counter stays identical to the exhaustive path's.
            "spatial_queries": self.spatial_queries,
            "spatial_candidates": self.spatial_candidates,
            "spatial_skipped": self.spatial_skipped,
        }
        if self.cull_margin_db is not None:
            counters["cull_margin_db"] = self.cull_margin_db
        grid = self._spatial
        if grid is not None:
            counters["spatial_cell_size_m"] = grid.cell_size_m
            counters["spatial_cells"] = grid.cell_count
        return counters

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, radio: "Radio") -> None:
        """Register a radio with the medium.

        Mid-run attach contract: a radio attached while transmissions are
        in flight does **not** observe them — it receives no retroactive
        ``on_air_start`` (its CCA never saw the frame begin) and, because
        end-of-air is delivered only to radios keyed in the transmission's
        ``rx_power_mw``, no spurious ``on_air_end`` either.  It starts
        participating with the first transmission that begins after the
        attach.
        """
        if radio.radio_id in self._radios_by_id:
            raise ValueError(f"duplicate radio id {radio.radio_id}")
        self._radios_by_id[radio.radio_id] = radio
        self._attach_seq[radio.radio_id] = self._next_attach_seq
        self._next_attach_seq += 1
        config = radio.config
        threshold = min(config.noise_floor_dbm, config.cs_threshold_dbm)
        if threshold < self._weakest_threshold_dbm:
            self._weakest_threshold_dbm = threshold
            self._reach_memo.clear()  # radii must cover the new weakest
        if config.tx_power_dbm > self._max_tx_power_dbm:
            self._max_tx_power_dbm = config.tx_power_dbm
        if self._spatial is not None:
            position = radio.position
            self._spatial.add(radio.radio_id, position.x, position.y)
        radio.on_attached()

    def detach(self, radio: "Radio") -> None:
        """Remove a radio from the medium (the node left the network).

        Mid-run detach contract, mirroring :meth:`attach`: the radio is
        scrubbed from every in-flight transmission's observer set, so it
        will never receive an ``on_air_end`` for a frame it stopped
        listening to — nor any notification for frames that start after
        the detach.  Position-dependent caches involving the radio are
        dropped (it may re-attach somewhere else).  The radio's own
        :meth:`repro.phy.radio.Radio.on_detached` resets its reception
        state (in-air frames, CCA, lock).
        """
        if self._radios_by_id.pop(radio.radio_id, None) is None:
            raise ValueError(f"radio id {radio.radio_id} is not attached")
        # O(1) departure: the ordered dict pop above removed the radio
        # without disturbing any other radio's iteration position (the
        # old list-based store paid an O(N) ``list.remove`` here, which
        # churn faults hammer).  The attach-seq entry goes with it; the
        # weakest-threshold floor is deliberately *not* recomputed (see
        # the class docstring — a stale, lower floor is still sound).
        del self._attach_seq[radio.radio_id]
        if self._spatial is not None:
            self._spatial.remove(radio.radio_id)
        for tx in self._active:
            tx.rx_power_mw.pop(radio.radio_id, None)
        self.on_radio_moved(radio.radio_id)
        for pair in [p for p in self._link_rng_memo if radio.radio_id in p]:
            # Memory hygiene only: substream() memoizes per key, so a
            # re-attached radio gets the identical generator back.
            del self._link_rng_memo[pair]
        radio.on_detached()

    @property
    def radios(self) -> List["Radio"]:
        """All attached radios, in attach order (a fresh copy per call).

        Safe to mutate or hold across attach/detach; hot loops should
        use :meth:`radios_view` instead — this property builds a new
        list on every access.
        """
        return list(self._radios_by_id.values())

    def radios_view(self) -> ValuesView["Radio"]:
        """Non-copying attach-ordered view of the attached radios.

        The internal accessor for hot loops: a live ``dict`` values view
        — O(1), reflects later attaches/detaches, and must not be
        mutated or held across topology changes while iterating.
        """
        return self._radios_by_id.values()

    @property
    def radio_count(self) -> int:
        """Number of attached radios (no copy)."""
        return len(self._radios_by_id)

    def invalidate_link_shadowing(self, radio_id: int) -> int:
        """Drop cached per-link shadowing draws involving ``radio_id``.

        Only meaningful in ``per_link`` mode: a moved radio's old draws
        describe paths that no longer exist.  Returns how many entries
        were dropped.  The cache is indexed per radio, so this is
        O(degree of the radio), not O(all cached links).
        """
        self._link_rx_mw.invalidate(radio_id)  # composed from the draws
        return self._link_shadowing_db.invalidate(radio_id)

    def on_radio_moved(self, radio_id: int) -> None:
        """Invalidate everything position-dependent for ``radio_id``.

        Called by :meth:`repro.phy.radio.Radio.move_to`: drops the
        radio's cached mean-power entries (they encode the old distance),
        its per-link shadowing draws, and the composed per-link powers
        derived from both.
        """
        self._mean_rx_cache.invalidate(radio_id)
        self._link_shadowing_db.invalidate(radio_id)
        self._link_rx_mw.invalidate(radio_id)
        if self._spatial is not None:
            radio = self._radios_by_id.get(radio_id)
            if radio is not None:  # detach scrubs the grid itself
                position = radio.position  # move_to updated it already
                self._spatial.move(radio_id, position.x, position.y)

    def on_radio_power_changed(self, radio_id: int) -> None:
        """Invalidate everything tx-power-dependent for ``radio_id``.

        Called by :meth:`repro.phy.radio.Radio.set_tx_power_dbm` (the
        C-SR coordinated power capping).  Narrower than
        :meth:`on_radio_moved`: mean powers and composed per-link powers
        encode the old transmit power, but ``per_link`` shadowing draws
        are a property of the *link*, not the power, and must survive —
        redrawing them would silently change physics with the RNG.
        """
        self._mean_rx_cache.invalidate(radio_id)
        self._link_rx_mw.invalidate(radio_id)

    @property
    def active_transmissions(self) -> List[Transmission]:
        """Transmissions currently in the air."""
        return list(self._active)

    # ------------------------------------------------------------------
    # Spatial candidate generation (see repro.phy.spatial)
    # ------------------------------------------------------------------
    @property
    def spatial_grid(self) -> Optional[SpatialIndex]:
        """The hash grid, or None (undecided, or the sweep was chosen)."""
        return self._spatial

    def prepare_spatial(self) -> Optional[SpatialIndex]:
        """Take the grid-vs-exhaustive choice now; returns the grid or None.

        Idempotent: the first call with radios attached decides, later
        calls return the frozen outcome.
        :meth:`repro.net.network.Network.finalize` calls this once the
        topology is complete, so the choice sees the full extent and
        manifests/counters report the grid before traffic starts.
        Without it the first transmission decides from whatever is
        attached at that point — still sound (the choice is perf-only),
        possibly a worse fit.
        """
        if self._grid_pending and self._radios_by_id:
            self._grid_pending = False
            reach = self.propagation.reach_radius_m(
                self._max_tx_power_dbm,
                self._weakest_threshold_dbm,
                self.cull_margin_db,
            )
            radios = self._radios_by_id.values()
            xs = [r.position.x for r in radios]
            ys = [r.position.y for r in radios]
            extent = max(max(xs) - min(xs), max(ys) - min(ys))
            if spatial.grid_pays_off(extent, reach):
                # Cells one reach radius wide: a query touches ~9 cells
                # regardless of N.  Radios attached later may change the
                # extent or the power maximum; that only affects
                # constants, never soundness — per-sender query radii
                # always come from :meth:`_reach_radius`.
                grid = SpatialIndex(reach)
                for radio in radios:
                    grid.add(radio.radio_id, radio.position.x, radio.position.y)
                self._spatial = grid
                record_grid_built(grid.cell_size_m)
        return self._spatial

    def _reach_radius(self, sender: "Radio") -> float:
        """The sender's sound culling radius (memoized per tx power)."""
        power = sender.config.tx_power_dbm
        radius = self._reach_memo.get(power)
        if radius is None:
            radius = self.propagation.reach_radius_m(
                power, self._weakest_threshold_dbm, self.cull_margin_db
            )
            self._reach_memo[power] = radius
            record_reach_radius(radius)
        return radius

    def _spatial_candidates(self, sender: "Radio") -> List["Radio"]:
        """Candidate receivers for one frame, in attach order.

        A provable superset of the cull survivors (every skipped radio
        fails ``mean + margin >= min(noise, T_cs)``); the caller still
        runs the exact cull test per candidate.  Sorting by attach
        sequence restores the delivery order the exhaustive loop
        produces, keeping notification order — and therefore every
        downstream outcome — bit-identical.
        """
        position = sender.position
        ids = self._spatial.query_disk(
            position.x, position.y, self._reach_radius(sender)
        )
        self.spatial_queries += 1
        sender_id = sender.radio_id
        ids = [i for i in ids if i != sender_id]
        ids.sort(key=self._attach_seq.__getitem__)
        self.spatial_candidates += len(ids)
        by_id = self._radios_by_id
        return [by_id[i] for i in ids]

    def record_spatial_occupancy(self) -> None:
        """Observe per-cell occupancy into ``channel/spatial_occupancy``.

        One histogram sample per non-empty cell at call time — a
        point-in-time distribution, recorded when a registry is bound
        and the grid exists (no-op otherwise).  Called by
        :meth:`repro.net.network.Network.finalize` after the eager grid
        build; benches may call it again at end of run.
        """
        registry = self._registry
        grid = self._spatial
        if registry is None or grid is None:
            return
        histogram = registry.histogram(
            "channel/spatial_occupancy", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        for occupancy in grid.occupancy():
            histogram.observe(occupancy)

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def transmit(self, sender: "Radio", frame: "Frame") -> Transmission:
        """Put ``frame`` on the air from ``sender``; returns the record.

        Called by :meth:`repro.phy.radio.Radio.start_transmission` only.
        Radios whose mean received power sits ``cull_margin_db`` below
        both their noise floor and their carrier-sense threshold are
        skipped entirely (no draw, no ``rx_power_mw`` entry, no events).
        """
        duration = self.timing.frame_airtime_ns(frame)
        tx = Transmission(frame, sender, self.sim.now, self.sim.now + duration)
        self._active.append(tx)
        self.frames_sent += 1
        margin = self.cull_margin_db
        latency = self.air_latency_ns
        schedule = self.sim.schedule
        culled = 0
        receivers: List[Tuple["Radio", float]] = []
        if self._grid_pending:
            self.prepare_spatial()
        if self._spatial is not None:
            # Grid pre-filter: sweep only the sender's reach disk.  The
            # radios skipped here are exactly radios the cull test below
            # would have rejected (reach-radius soundness), so they are
            # charged to ``culled`` to keep the counter identical to the
            # exhaustive path's.
            candidates = self._spatial_candidates(sender)
            culled = len(self._radios_by_id) - 1 - len(candidates)
            self.spatial_skipped += culled
            sweep = candidates
        else:
            sweep = self._radios_by_id.values()
        for radio in sweep:
            if radio is sender:
                continue
            if margin is not None:
                mean_dbm = self._mean_rx_dbm(sender, radio)
                config = radio.config
                if (
                    mean_dbm + margin < config.noise_floor_dbm
                    and mean_dbm + margin < config.cs_threshold_dbm
                ):
                    culled += 1
                    continue
            power_mw = self._received_power_mw(sender, radio, frame)
            tx.rx_power_mw[radio.radio_id] = power_mw
            if not latency:
                radio.on_air_start(tx, power_mw)
            elif self._hotpath:
                receivers.append((radio, power_mw))
            else:
                schedule(latency, radio.on_air_start, tx, power_mw)
        if receivers:
            # All per-receiver notifications share one timestamp and
            # consecutive seqs, so nothing can fire between them — one
            # coalesced event delivering them in the same order is
            # exactly equivalent and saves N-1 heap entries per frame.
            schedule(latency, self._deliver_air_start, tx, receivers)
        self.links_culled += culled
        if self.trace.wants("channel"):
            self.trace.record(
                "channel", "tx-start",
                frame=frame.describe(), sender=sender.radio_id, culled=culled,
            )
        self.sim.schedule(duration, self._end_transmission, tx)
        return tx

    def _end_transmission(self, tx: Transmission) -> None:
        """Remove a finished transmission and notify its observers.

        Only radios keyed in ``tx.rx_power_mw`` — the ones that received
        ``on_air_start`` — are notified.  Radios culled at transmit time
        and radios attached while the frame was in flight never hear
        about it (see :meth:`attach` for the mid-run attach contract).
        """
        self._active.remove(tx)
        if self.trace.wants("channel"):
            self.trace.record("channel", "tx-end", frame=tx.frame.describe())
        latency = self.air_latency_ns
        radios_by_id = self._radios_by_id
        if latency and self._hotpath:
            if tx.rx_power_mw:
                # Same coalescing argument as in transmit(): the end
                # notifications are back-to-back either way.
                self.sim.schedule(latency, self._deliver_air_end, tx)
        else:
            for radio_id in tx.rx_power_mw:
                radio = radios_by_id.get(radio_id)
                if radio is None:
                    continue  # detached after this frame started
                if latency:
                    self.sim.schedule(latency, radio.on_air_end, tx)
                else:
                    radio.on_air_end(tx)
        tx.sender.on_own_tx_end(tx)

    def _deliver_air_start(
        self, tx: Transmission, receivers: List[Tuple["Radio", float]]
    ) -> None:
        """Coalesced start-of-air delivery (hot path, latency > 0 only).

        Receivers are notified in attach order — the order the
        per-receiver events fired in on the uncoalesced path.
        """
        for radio, power_mw in receivers:
            radio.on_air_start(tx, power_mw)

    def _deliver_air_end(self, tx: Transmission) -> None:
        """Coalesced end-of-air delivery (hot path, latency > 0 only)."""
        radios_by_id = self._radios_by_id
        for radio_id in tx.rx_power_mw:
            radio = radios_by_id.get(radio_id)
            if radio is not None:  # detached radios never hear the end
                radio.on_air_end(tx)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _mean_rx(self, sender: "Radio", receiver: "Radio") -> Tuple[float, float]:
        """Deterministic mean received power as ``(dbm, mw)``.

        Cached per (tx, rx) pair on the hot path; with
        ``REPRO_HOTPATH=off`` both values are re-derived per call through
        the exact same expressions, so the realization is identical
        either way.  The cache assumes positions and transmit powers only
        change via :meth:`repro.phy.radio.Radio.move_to`, which
        invalidates the moved radio's entries through
        :meth:`on_radio_moved`.
        """
        if self._hotpath:
            key = (sender.radio_id, receiver.radio_id)
            entry = self._mean_rx_cache.get(key)
            if entry is None:
                dist = sender.position.distance_to(receiver.position)
                mean_dbm = self.propagation.mean_rx_dbm(
                    sender.config.tx_power_dbm, dist
                )
                entry = (mean_dbm, dbm_to_mw(mean_dbm))
                self._mean_rx_cache.put(key, entry)
            return entry
        dist = sender.position.distance_to(receiver.position)
        mean_dbm = self.propagation.mean_rx_dbm(sender.config.tx_power_dbm, dist)
        return (mean_dbm, dbm_to_mw(mean_dbm))

    def _mean_rx_dbm(self, sender: "Radio", receiver: "Radio") -> float:
        """Deterministic mean received power in dBm (culling check)."""
        return self._mean_rx(sender, receiver)[0]

    def _link_rng(self, tx_id: int, rx_id: int):
        """The ordered pair's private shadowing generator.

        Seeded via ``derive_seed(root, "shadowing", band, tx, rx)``, so
        the stream depends only on the link's identity — never on how
        many draws other links consumed or whether they were culled.
        The generator *object* is the same either way (``substream``
        memoizes per key); the hot path only skips rebuilding the key
        tuple, so the draw sequence cannot differ between modes.
        """
        if self._hotpath:
            pair = (tx_id, rx_id)
            rng = self._link_rng_memo.get(pair)
            if rng is None:
                rng = self._rngs.substream("shadowing", self.band, tx_id, rx_id)
                self._link_rng_memo[pair] = rng
            return rng
        return self._rngs.substream("shadowing", self.band, tx_id, rx_id)

    def _received_power_mw(self, sender: "Radio", receiver: "Radio", frame: "Frame") -> float:
        """Draw the received power of this frame at ``receiver``.

        Composition per shadowing mode (identical expressions on the
        cached and re-derivation paths):

        * ``none`` — the linear mean, ``dbm_to_mw(mean_dbm)``.
        * ``per_link`` — ``dbm_to_mw(mean_dbm + offset)``; the composed
          value is constant per pair, so the hot path caches it whole.
        * ``per_frame`` — ``mean_mw * db_to_ratio(offset)``: the cached
          linear mean times the fresh offset ratio, one multiply per
          frame instead of a ``10 **`` of the recomposed dB sum.
        """
        mean_dbm, mean_mw = self._mean_rx(sender, receiver)
        mode = self.shadowing_mode
        if mode == "none":
            return mean_mw
        if mode == "per_link":
            key = (sender.radio_id, receiver.radio_id)
            if self._hotpath:
                rx_mw = self._link_rx_mw.get(key)
                if rx_mw is not None:
                    return rx_mw
            offset = self._link_shadowing_db.get(key)
            if offset is None:
                offset = self.propagation.shadowing_db(
                    self._link_rng(sender.radio_id, receiver.radio_id)
                )
                self._link_shadowing_db.put(key, offset)
            rx_mw = dbm_to_mw(mean_dbm + offset)
            if self._hotpath:
                self._link_rx_mw.put(key, rx_mw)
            return rx_mw
        # per_frame
        offset = self.propagation.shadowing_db(
            self._link_rng(sender.radio_id, receiver.radio_id)
        )
        return mean_mw * db_to_ratio(offset)
