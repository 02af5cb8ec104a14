"""The hot-path knob: cached frame math vs. full re-derivation.

``REPRO_HOTPATH`` (default **on**) gates the PHY's per-frame caches —
linear-domain (mW) mean received powers per (tx, rx) pair, per-rate
sensitivity/SIR constants, the radio's in-air energy memo — and the
channel's coalesced air notifications.  The discipline is *cache,
never re-derive*: every cached value is produced by exactly the same
expression the uncached path evaluates, so enabling the caches is
bit-identical to recomputing from scratch.  ``REPRO_HOTPATH=off`` (or
``0``/``false``/``no``) force-disables all of them, giving a slow
reference path used by the equivalence tests in
``tests/test_hotpath_equivalence.py`` and as the baseline of
``benchmarks/bench_engine_throughput.py``'s hot-path bench.

The flag is read from the environment once (consumers sit on per-frame
paths where an ``os.environ`` lookup per call would itself be a cost)
and can be overridden programmatically — ``None`` restores deference
to the environment.  Objects that sample the flag at construction time
(``Channel``, ``Radio``) must be rebuilt to observe a change.

The other PHY execution choice — hash-grid candidate generation vs the
exhaustive receiver sweep — is not a knob: each channel takes it from
its own topology (:func:`repro.phy.spatial.grid_pays_off`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: Environment knob: ``off``/``0``/``false``/``no`` disables hot-path caching.
HOTPATH_ENV = "REPRO_HOTPATH"

#: Values (lower-cased) that read as "disabled".
_DISABLED_VALUES = ("off", "0", "false", "no")

#: Programmatic override (``None`` = defer to the environment).
_override: Optional[bool] = None
#: Resolved environment value (``None`` = not yet read).
_from_env: Optional[bool] = None


def hotpath_enabled() -> bool:
    """True when hot-path caches are active (override > env > default on)."""
    global _from_env
    if _override is not None:
        return _override
    if _from_env is None:
        raw = os.environ.get(HOTPATH_ENV, "").strip().lower()
        _from_env = not raw or raw not in _DISABLED_VALUES
    return _from_env


def set_hotpath(enabled: Optional[bool]) -> None:
    """Override the knob; ``None`` re-reads the environment on next query."""
    global _override, _from_env
    _override = enabled
    if enabled is None:
        _from_env = None


@contextmanager
def hotpath_forced(enabled: bool) -> Iterator[None]:
    """Pin the knob inside a block, restoring the prior override after."""
    global _override
    previous = _override
    _override = enabled
    try:
        yield
    finally:
        _override = previous
