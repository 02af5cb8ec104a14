"""Named, independent random-number streams and seed derivation.

A discrete-event simulation is only debuggable when it is reproducible.
Reproducibility breaks as soon as two unrelated consumers (say, backoff
draws and shadowing draws) interleave their pulls from a single generator:
adding one extra packet perturbs every later draw everywhere.

:class:`RngStreams` gives each consumer its own :class:`numpy.random.Generator`
derived from a single root seed via ``SeedSequence.spawn``-style keying, so

* the same root seed always reproduces the same run, and
* changes in one subsystem's draw count never perturb another subsystem.

:func:`derive_seed` is the content-addressed counterpart: a SHA-256
derivation over an arbitrary key tuple, stable across processes and
platforms.  The parallel sweep executor keys per-task seeds with it, and
:meth:`RngStreams.substream` keys per-(transmitter, receiver) shadowing
generators with it — the property that lets the channel *skip* a draw
for one link without perturbing any other link's randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Iterable

import numpy as np

_SEED_BITS = 63


def derive_seed(base_seed: int, *key: Any) -> int:
    """A collision-free child seed from ``(base_seed, *key)``.

    The key tuple is canonically encoded and hashed with SHA-256, then
    folded to a non-negative 63-bit integer.  Unlike ``hash()`` this is
    stable across processes, platforms, and Python versions, and unlike
    arithmetic schemes (``seed + 1000 * rep``) distinct keys cannot
    collide for any realistic grid size (a collision needs ~2^31 keys).
    """
    payload = _canonical((int(base_seed),) + tuple(key))
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << _SEED_BITS) - 1)


def _canonical(value: Any) -> bytes:
    """A byte encoding of ``value`` that is stable across runs/platforms."""
    return _canon_str(value).encode("utf-8")


def _canon_str(value: Any) -> str:
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        # repr() is the shortest round-trip form — identical on every
        # IEEE-754 platform supported by CPython >= 3.1.
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{len(value)}:{value}"
    if value is None:
        return "n"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canon_str(v) for v in value)
        return f"t:[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_canon_str(k)}={_canon_str(v)}" for k, v in sorted(value.items())
        )
        return f"d:{{{inner}}}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return f"dc:{type(value).__qualname__}:{_canon_str(body)}"
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", repr(value))
        return f"fn:{module}.{name}"
    if hasattr(value, "__dict__"):
        # Plain config objects (e.g. error models, RateTable): class name
        # plus instance attributes.
        return f"obj:{type(value).__qualname__}:{_canon_str(vars(value))}"
    raise TypeError(
        f"cannot canonically encode {type(value).__qualname__!r} for "
        f"seed/cache derivation"
    )


class RngStreams:
    """A family of independent RNG streams derived from one root seed.

    Streams are addressed by string name (and optionally extra integer
    keys, e.g. a node id) and created lazily::

        rngs = RngStreams(seed=7)
        backoff = rngs.stream("backoff", node_id)
        shadowing = rngs.stream("shadowing")

    Requesting the same name/keys twice returns the *same* generator
    object, so stateful consumption continues where it left off.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[tuple, np.random.Generator] = {}
        self._substreams: Dict[tuple, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was built from."""
        return self._seed

    def stream(self, name: str, *keys: int) -> np.random.Generator:
        """Return the generator for ``(name, *keys)``, creating it on demand."""
        key = (name,) + tuple(int(k) for k in keys)
        gen = self._streams.get(key)
        if gen is None:
            # Deterministic child seed: hash the textual key together with
            # the root seed through SeedSequence entropy mixing.
            entropy = [self._seed] + [ord(c) for c in name] + list(key[1:])
            gen = np.random.default_rng(np.random.SeedSequence(entropy))
            self._streams[key] = gen
        return gen

    def substream(self, name: str, *keys: Any) -> np.random.Generator:
        """A counter-based generator for ``(name, *keys)``, created on demand.

        Unlike :meth:`stream` — whose child seeds come from SeedSequence
        entropy mixing — a substream's seed is
        ``derive_seed(root_seed, name, *keys)``: a content-addressed
        SHA-256 derivation that depends only on the key's *identity*.
        Substreams therefore stay independent of creation order and of
        how many other substreams exist, which is what lets hot-path
        consumers (the channel's per-link shadowing draws) skip entire
        substreams without perturbing the rest of the run.

        Requesting the same key twice returns the *same* generator, so
        stateful consumption continues where it left off.
        """
        key = (name,) + keys
        gen = self._substreams.get(key)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._seed, name, *keys))
            self._substreams[key] = gen
        return gen

    def spawn(self, offset: int) -> "RngStreams":
        """Return a new independent family (for replicated experiment runs)."""
        return RngStreams(seed=self._seed * 1_000_003 + offset)

    def known_streams(self) -> Iterable[tuple]:
        """Names of all streams created so far (diagnostic aid)."""
        return tuple(self._streams.keys()) + tuple(self._substreams.keys())
