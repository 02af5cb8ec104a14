"""Uniform hash-grid spatial index: O(density) candidate generation.

The grid bounds the channel's per-frame receiver sweep by *local
density* instead of population.  The below-floor cull already skips
draws and events for receivers whose mean power sits
``cull_margin_db`` below both thresholds, but the exhaustive loop still
*visits* every attached radio to run that test — O(N) dict lookups and
float compares per frame, the asymptotic wall for city-scale floors.
This module replaces the sweep's domain: radios hash into square grid
cells keyed by ``(floor(x / cell), floor(y / cell))``, and a sender
queries only the cells overlapping the disk of its *reach radius* — the
distance at which the propagation mean provably falls
``cull_margin_db`` below the weakest threshold on the channel (see
:meth:`repro.phy.propagation.LogNormalShadowing.reach_radius_m`).

When the grid is used
---------------------

Each channel decides once, from its own topology, through
:func:`grid_pays_off`: the grid is built only when culling is active
and the floor's larger axis span exceeds
:data:`GRID_MIN_EXTENT_REACHES` reach radii of the strongest sender.
Cells are one reach radius wide and a query visits the 3x3 block
around the sender, so on a narrower floor every query returns (nearly)
every radio and the grid is pure bookkeeping overhead.  The paper's
floors sit far below the boundary (extent/reach <= 0.14); a row of
cells kilometres apart sits far above it.

Soundness over tightness
------------------------

The grid is a *pre-filter*, never a decision procedure: every candidate
it returns still runs the exact scalar cull test, so the only
correctness requirement is that the query returns a **superset** of the
survivors.  That holds by construction — the reach radius is a sound
outer bound on the survivor disk, and the query visits the full cell
bounding box of that disk (corner cells included).  Per-node counters,
``rx_power_mw`` maps, and per-flow goodput are therefore bit-identical
to the exhaustive path (culled links consume no RNG draws — per-link
substreams — so *not visiting* a culled link is indistinguishable from
visiting and skipping it), which makes the grid-vs-exhaustive choice a
pure performance decision.  The contract is pinned by
``tests/test_spatial_equivalence.py``, which forces each side by
patching :func:`grid_pays_off`.

Maintenance is incremental through the channel's existing hooks:
``attach`` inserts, ``detach`` removes, ``on_radio_moved`` rehashes one
radio — all O(1).
"""

from __future__ import annotations

from math import floor, inf
from typing import Dict, List, Set, Tuple

_CellKey = Tuple[int, int]

#: The grid pays off only on floors wider than this many reach radii.
GRID_MIN_EXTENT_REACHES = 3.0


def grid_pays_off(extent_m: float, reach_m: float) -> bool:
    """True when a grid of ``reach_m`` cells beats the exhaustive sweep.

    ``extent_m`` is the topology's larger axis span and ``reach_m`` the
    strongest sender's reach radius.  A query visits the 3x3 cells
    around its sender, which already cover a floor no wider than three
    radii — the grid would then skip nothing and only add its upkeep.
    The choice is perf-only (both sides are bit-identical), so tests
    patch this function to force either side.
    """
    return extent_m > GRID_MIN_EXTENT_REACHES * reach_m


class SpatialIndex:
    """Uniform hash grid over point members keyed by integer id.

    Cells are created on first insert and dropped when emptied, so
    memory is O(members + non-empty cells) regardless of the coordinate
    range (city floors hash as cheaply as office floors).
    """

    __slots__ = ("cell_size_m", "_cell_of", "_cells")

    def __init__(self, cell_size_m: float) -> None:
        if not cell_size_m > 0.0:
            raise ValueError(f"cell size must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        self._cell_of: Dict[int, _CellKey] = {}
        self._cells: Dict[_CellKey, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def __contains__(self, member_id: int) -> bool:
        return member_id in self._cell_of

    def _key(self, x: float, y: float) -> _CellKey:
        c = self.cell_size_m
        return (floor(x / c), floor(y / c))

    def add(self, member_id: int, x: float, y: float) -> None:
        """Insert a member; re-adding an existing id is an error."""
        if member_id in self._cell_of:
            raise ValueError(f"member {member_id} already indexed")
        key = self._key(x, y)
        self._cell_of[member_id] = key
        self._cells.setdefault(key, set()).add(member_id)

    def remove(self, member_id: int) -> None:
        """Drop a member; removing an unknown id is an error."""
        key = self._cell_of.pop(member_id, None)
        if key is None:
            raise ValueError(f"member {member_id} is not indexed")
        bucket = self._cells[key]
        bucket.discard(member_id)
        if not bucket:
            del self._cells[key]

    def move(self, member_id: int, x: float, y: float) -> None:
        """Rehash a member to its new position (no-op within its cell)."""
        old = self._cell_of.get(member_id)
        if old is None:
            raise ValueError(f"member {member_id} is not indexed")
        new = self._key(x, y)
        if new == old:
            return
        bucket = self._cells[old]
        bucket.discard(member_id)
        if not bucket:
            del self._cells[old]
        self._cell_of[member_id] = new
        self._cells.setdefault(new, set()).add(member_id)

    def query_disk(self, x: float, y: float, radius_m: float) -> List[int]:
        """Ids of all members in cells overlapping the disk (a superset).

        Visits the cell bounding box of the disk — members up to one
        cell diagonal outside the radius may be returned, and callers
        must re-test each candidate (the channel runs the exact cull
        check).  When the box spans more cells than exist, iterates the
        non-empty cells instead, so degenerate huge-radius queries cost
        O(non-empty cells), never O(box area).
        """
        c = self.cell_size_m
        i0 = floor((x - radius_m) / c)
        i1 = floor((x + radius_m) / c)
        j0 = floor((y - radius_m) / c)
        j1 = floor((y + radius_m) / c)
        cells = self._cells
        out: List[int] = []
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(cells):
            get = cells.get
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    bucket = get((i, j))
                    if bucket:
                        out.extend(bucket)
        else:
            for (i, j), bucket in cells.items():
                if i0 <= i <= i1 and j0 <= j <= j1:
                    out.extend(bucket)
        return out

    def members(self) -> Dict[int, _CellKey]:
        """Snapshot of every member's cell key (brute-force test oracle)."""
        return dict(self._cell_of)

    def occupancy(self) -> List[int]:
        """Member count of each non-empty cell (order unspecified)."""
        return [len(bucket) for bucket in self._cells.values()]


# ----------------------------------------------------------------------
# Process-level stats for run manifests (satellite: sweep attribution)
# ----------------------------------------------------------------------
class _Aggregate:
    """Constant-memory min/max/sum/count over recorded samples."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = inf
        self.maximum = -inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
        }


_cell_sizes = _Aggregate()
_reach_radii = _Aggregate()


def record_grid_built(cell_size_m: float) -> None:
    """Channels report each grid they size; feeds the manifest block."""
    _cell_sizes.record(cell_size_m)


def record_reach_radius(radius_m: float) -> None:
    """Channels report each distinct reach radius they resolve."""
    _reach_radii.record(radius_m)


def reset_spatial_stats() -> None:
    """Forget recorded stats (test isolation)."""
    global _cell_sizes, _reach_radii
    _cell_sizes = _Aggregate()
    _reach_radii = _Aggregate()


def spatial_manifest_block() -> Dict[str, object]:
    """The ``spatial`` block recorded in run manifests.

    Reports how many grids were built *in this process* since the last
    reset, plus cell-size / reach-radius aggregates when any were — the
    path actually taken, since each channel chooses for itself.  Sweep
    workers in a process pool build their own grids; their stats are
    not shipped back to the parent, so the block describes the parent's
    runs, and per-channel counters (``channel/spatial_*``) carry the
    per-run detail.  Archived manifests carry an older
    ``{"enabled": ...}`` form of this block; both load unchanged.
    """
    block: Dict[str, object] = {"grids_built": _cell_sizes.count}
    if _cell_sizes.count:
        block["cell_size_m"] = _cell_sizes.as_dict()
    if _reach_radii.count:
        block["reach_radius_m"] = _reach_radii.as_dict()
    return block
