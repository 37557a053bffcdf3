"""Noncrossing set partitions of {1..m} and Catalan numbers.

Partitions are represented on 0-based positions: a partition is a tuple
of blocks, each block an increasing tuple of indices, blocks ordered by
their least element.  ``noncrossing_partitions(m)`` enumerates exactly
the noncrossing ones; their number is the m-th Catalan number.

Enumeration is recursive on the block containing the least element:
the chosen block splits the remaining positions into independent gaps,
each of which is partitioned noncrossingly on its own.  Results are
cached per order behind a lock so concurrent readers are safe.

This is the public enumerator and the test oracle for the moment-
cumulant formula.  It is not on the moment path: ``states`` applies the
same first-block recursion to values, so no moment evaluation builds
the Catalan-many partitions or this cache.
"""

from __future__ import annotations

import itertools
import threading
from math import comb

MAX_PARTITION_ORDER = 16

_cache = {0: ((),)}
_lock = threading.Lock()


def catalan(m):
    """The m-th Catalan number C(2m, m)/(m+1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return comb(2 * m, m) // (m + 1)


def noncrossing_partitions(m):
    """All noncrossing partitions of {0..m-1} (cached, immutable)."""
    if not 1 <= m <= MAX_PARTITION_ORDER:
        raise ValueError(
            f"partition order {m} out of range 1..{MAX_PARTITION_ORDER}"
        )
    with _lock:
        for k in range(1, m + 1):
            if k not in _cache:
                _cache[k] = _build(k)
        return _cache[m]


def _build(m):
    # _cache already holds all orders < m when this runs
    out = []
    rest = tuple(range(1, m))
    for size in range(0, m):
        for tail in itertools.combinations(rest, size):
            first_block = (0,) + tail
            # gaps between consecutive members of the first block,
            # plus the stretch after its last member
            bounds = first_block + (m,)
            gaps = [
                (bounds[t] + 1, bounds[t + 1]) for t in range(len(first_block))
            ]
            gap_parts = [
                _cache[hi - lo] if hi > lo else ((),) for lo, hi in gaps
            ]
            for combo in itertools.product(*gap_parts):
                blocks = [first_block]
                for (lo, _), part in zip(gaps, combo):
                    for b in part:
                        blocks.append(tuple(x + lo for x in b))
                blocks.sort(key=lambda b: b[0])
                out.append(tuple(blocks))
    return tuple(out)
