"""Deterministic random-number utilities.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` created through :func:`make_rng` so that
experiments are reproducible end to end. Components accept either a seed
or an existing generator; :func:`make_rng` normalises both cases.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Seed used across the experiment harness when none is supplied.
DEFAULT_SEED = 0x5EED


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int``, an existing generator (returned as-is so
    that callers can share one stream), or ``None`` for the library-wide
    default seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def normalize_seed(seed: SeedLike) -> Optional[int]:
    """Collapse ``seed`` to a concrete int, honouring the full contract.

    Ints pass through, ``None`` stays ``None`` (callers supply their own
    default), and an existing :class:`~numpy.random.Generator` is
    consumed for one draw — so two different generators (or the same
    generator at different points of its stream) yield different
    sub-seeds instead of being silently discarded.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if seed is None:
        return None
    return int(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators.

    Children are derived from seeds drawn from the parent, so a run is
    reproducible even when subcomponents consume different numbers of
    samples.
    """
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


#: FNV-1a 64-bit prime (the multiplier :func:`derive_seed` inlines).
_FNV_PRIME = 0x100000001B3


def derive_seed(base: int, *components: object) -> int:
    """Derive a stable sub-seed from ``base`` and hashable components.

    Used to give each (NF, contender, traffic-profile) combination its own
    deterministic noise stream regardless of evaluation order.

    The mixing loop runs on plain Python ints (bit-identical to the
    original ``np.uint64``-wrapped arithmetic, ~5x faster): seeding
    measurement noise hashes full workload reprs, which made per-byte
    ``np.uint64`` round-trips the hottest line of simulation sweeps.
    """
    value = int(np.uint64(base))
    for component in components:
        # FNV-1a style mixing over the repr; stable across processes
        # because PYTHONHASHSEED does not affect repr of our value types.
        for byte in repr(component).encode("utf-8"):
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return int(value % (2**63 - 1))


#: Byte steps per block of :func:`derive_seeds`' byte matrix, which
#: bounds the matrix at ``_SEED_BLOCK * len(keys)`` bytes.
_SEED_BLOCK = 512

#: Fewest keys :func:`derive_seeds` folds lane-parallel. Each byte step
#: costs a fixed ~1 us of numpy dispatch whatever the lane count, so
#: below ~16 keys the scalar loop is faster.
_MIN_SEED_LANES = 16


def derive_seeds(base: int, keys: Sequence[tuple]) -> list[int]:
    """``[derive_seed(base, *key) for key in keys]``, lane-parallel.

    Each key is one lane: the reprs of its components back to back (as
    ``derive_seed`` folds them, with no separator). FNV-1a runs over all
    lanes at once on ``uint64`` with numpy's wrapping multiply. Lanes
    are sorted by length, longest first, so the lanes still consuming
    bytes at any step are always a prefix. The bytes are fed through a
    ``uint8`` matrix built one block of steps at a time, and a
    component object shared by several keys is encoded once, so memory
    stays near the size of the distinct reprs. Fewer than
    :data:`_MIN_SEED_LANES` keys take the scalar loop.
    """
    value = np.uint64(base)
    if len(keys) < _MIN_SEED_LANES:
        return [derive_seed(base, *key) for key in keys]
    encoded: dict[int, bytes] = {}
    pieces = []
    for key in keys:
        parts = []
        for component in key:
            data = encoded.get(id(component))
            if data is None:
                data = encoded[id(component)] = repr(component).encode("utf-8")
            parts.append(data)
        pieces.append(parts)
    lengths = [sum(len(data) for data in parts) for parts in pieces]
    order = sorted(range(len(keys)), key=lambda k: -lengths[k])
    ends = [lengths[k] for k in order]
    lanes = np.full(len(keys), value, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    active = len(keys)
    for start in range(0, ends[0], _SEED_BLOCK):
        while ends[active - 1] <= start:
            active -= 1
        stop = min(start + _SEED_BLOCK, ends[0])
        block = np.zeros((stop - start, active), dtype=np.uint8)
        for lane in range(active):
            offset = 0
            for data in pieces[order[lane]]:
                lo, hi = max(start, offset), min(stop, offset + len(data))
                if lo < hi:
                    block[lo - start : hi - start, lane] = np.frombuffer(
                        data, dtype=np.uint8, count=hi - lo, offset=lo - offset
                    )
                offset += len(data)
        step = start
        while step < stop:
            while ends[active - 1] <= step:
                active -= 1
            # Steps until the shortest active lane runs out.
            until = min(stop, ends[active - 1])
            head = lanes[:active]
            for row in block[step - start : until - start, :active]:
                np.bitwise_xor(head, row, out=head)
                np.multiply(head, prime, out=head)
            step = until
    mixed = (lanes % np.uint64(2**63 - 1)).tolist()
    out = [0] * len(keys)
    for lane, k in enumerate(order):
        out[k] = mixed[lane]
    return out
