"""Cross-round buffer recycling for the vector packing kernel.

:class:`~repro.core.capacity.CapacitySearch` constructs a fresh
:class:`~repro.core.packing_vec.VectorGreedyPacker` every ``run()``
call, and the packer's constructor allocates a dozen dense mirrors —
dominated by the ``phones × jobs`` shipped-executable mask (5 MB at
the paper's 1000 × 5000 fleet scale).  A long-running
:class:`~repro.core.greedy.CwcScheduler` reschedules every round over
instances of the same (or nearly the same) shape, so those allocations
are pure churn: the previous round's buffers are exactly the right
size and already hot in cache.

:class:`ArrayPool` is a keyed free list of numpy buffers.  The search
owns one pool for its lifetime, hands it to each packer it builds, and
the packer returns its buffers on :meth:`VectorGreedyPacker.
release_buffers` — so round N+1's constructor is a handful of
``dict`` pops instead of fresh ``mmap``/``memset`` traffic.

Safety: the pool hands back buffers **uninitialised** (previous
contents intact).  Every pooled buffer in the vector packer is either
fully rewritten at pack start (``_rem``, ``_order_buf``, ``_hcut``,
…), grown write-before-read behind an explicit length (``_bh_buf`` /
``_bn``), or only ever read at indices written earlier in the same
pack (``_open_epoch_by_pos``) — callers adopting the pool for new
buffers must uphold the same discipline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayPool"]

#: Free buffers retained per (shape, dtype) key.  One search keeps at
#: most one packer's worth of buffers per key alive; the headroom
#: covers callers that interleave two instance shapes.
_MAX_PER_KEY = 4


class ArrayPool:
    """A keyed free list of reusable numpy buffers.

    Not thread-safe; the capacity search is single-threaded (pod
    workers own their own searches, and pools, in their own
    processes).
    """

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        #: Buffers served from the free list vs. freshly allocated.
        self.hits = 0
        self.misses = 0
        #: Buffers currently checked out (taken, not yet given back).
        #: The leak assertion: after ``release_buffers()`` this must be
        #: 0 or a pooled mirror escaped the recycling discipline.
        self.outstanding = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(np.atleast_1d(shape)) if not np.isscalar(shape)
                else (int(shape),), np.dtype(dtype).str)

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype``, contents arbitrary."""
        key = self._key(shape, dtype)
        self.outstanding += 1
        stack = self._free.get(key)
        if stack:
            self.hits += 1
            return stack.pop()
        self.misses += 1
        return np.empty(key[0], dtype=dtype)

    def give(self, arr: np.ndarray | None) -> None:
        """Return ``arr`` to the pool (``None`` is ignored).

        Only whole owned arrays come back; views would alias a buffer
        the pool might hand out twice.
        """
        if arr is None:
            return
        if arr.base is not None:
            return
        self.outstanding = max(0, self.outstanding - 1)
        key = self._key(arr.shape, arr.dtype)
        stack = self._free.setdefault(key, [])
        if len(stack) < _MAX_PER_KEY:
            stack.append(arr)

    def leaked_buffers(self) -> int:
        """Buffers taken and never returned (0 when the pool is clean).

        Pod workers and the capacity search assert this is 0 after
        ``release_buffers()``.
        """
        return self.outstanding

    def stats(self) -> dict:
        """JSON-safe counters (telemetry / tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "outstanding": self.outstanding,
            "free_buffers": sum(len(v) for v in self._free.values()),
            "free_bytes": sum(
                a.nbytes for v in self._free.values() for a in v
            ),
        }
