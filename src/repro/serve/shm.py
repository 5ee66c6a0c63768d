"""Shared-memory arena for zero-copy stacked-tensor handoff.

The sharded serving tier (:mod:`repro.serve.shard`) runs the
pack→build→execute loop in worker processes.  A finished batch's payload
is a handful of numpy arrays — the final-state amplitudes cut from the
CSR class planes or the ``(B, N, 2)`` dense tensor, class maps and
multiplicities — and pickling those through a pipe
would copy every byte twice (serialize + deserialize) on the serving hot
path.  Instead each worker owns one
:class:`multiprocessing.shared_memory.SharedMemory` segment managed by a
small arena allocator:

* :class:`ShmArena` — the owner side.  First-fit free list over one
  segment, 64-byte-aligned blocks, each block stamped with a
  monotonically increasing **generation** header at its start.  The
  owner writes the generation on ``alloc`` and overwrites it with a
  sentinel on ``free``, so a peer that attaches a stale
  :class:`ShmBlock` handle (the block was recycled underneath it)
  detects the mismatch instead of silently reading another batch's
  bytes.
* :class:`ArenaClient` — the peer side.  Caches one attached
  ``SharedMemory`` view per segment name and exposes
  :meth:`ArenaClient.view` → a zero-copy ``memoryview`` of a block,
  generation-checked.
* :func:`write_arrays` / :func:`read_arrays` — the array marshalling
  convention: arrays are laid head to tail (each 16-byte aligned) after
  the generation header, described by a tiny plain-tuple layout that
  *is* pickled (it is a few dozen bytes of names and shapes — the
  payload itself never is).

``alloc`` returning ``None`` means the arena is momentarily full; the
caller falls back to pickling that one batch (and counts it — the
sharded service surfaces ``shm_fallback_batches`` in telemetry), so an
undersized arena degrades to the slow path instead of deadlocking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ValidationError
from ..obs.metrics import METRICS
from ..utils.validation import require

#: Bytes reserved at the start of every block for the generation stamp
#: (8-byte unsigned generation + padding up to one cache line, so the
#: payload after it starts cache-line aligned).
BLOCK_HEADER = 64

#: Alignment of block starts within the segment (one cache line).
BLOCK_ALIGN = 64

#: Alignment of each array's payload within a block (numpy-friendly).
ARRAY_ALIGN = 16

#: Generation value a freed block's header is overwritten with.  Real
#: generations start at 1 and only grow, so a stale handle can never
#: match a freed block.
FREED_SENTINEL = 0


def _align(value: int, to: int) -> int:
    return (value + to - 1) // to * to


@dataclass(frozen=True)
class ShmBlock:
    """A handle to one allocated block: everything a peer needs to attach.

    Plain scalars only — the handle crosses the process boundary in the
    small control message; the payload stays in shared memory.
    """

    segment: str
    offset: int
    size: int
    generation: int


class ShmArena:
    """Owner side of one shared-memory segment with first-fit allocation.

    Parameters
    ----------
    name:
        Segment name suffix (the OS-visible name gets a ``repro-``
        prefix and must be unique per live arena).
    nbytes:
        Segment capacity.  Allocation requests beyond the *largest free
        run* return ``None`` rather than raising — momentary pressure is
        the caller's fallback path, not an error.

    The arena is single-owner, single-thread (each shard worker owns
    exactly one): no locks.  ``close`` unlinks the segment.
    """

    def __init__(self, name: str, nbytes: int) -> None:
        require(nbytes > BLOCK_HEADER, "arena must hold at least one block header")
        self._shm = shared_memory.SharedMemory(
            name=f"repro-{name}", create=True, size=nbytes
        )
        self._capacity = self._shm.size  # the OS may round up
        # Free list of (offset, size) runs, kept sorted by offset with
        # adjacent runs coalesced on free.
        self._free: list[tuple[int, int]] = [(0, self._capacity)]
        self._live: dict[int, ShmBlock] = {}
        self._generation = 0

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        """The OS-visible segment name peers attach by."""
        return self._shm.name

    @property
    def capacity(self) -> int:
        """Total segment bytes."""
        return self._capacity

    @property
    def live_blocks(self) -> int:
        """Blocks currently allocated (not yet freed)."""
        return len(self._live)

    # -- allocation --------------------------------------------------------------

    def alloc(self, payload_bytes: int) -> ShmBlock | None:
        """Carve a block holding ``payload_bytes`` after its header.

        Returns ``None`` when no free run fits — the caller's cue to
        fall back to pickling this one payload.
        """
        needed = _align(BLOCK_HEADER + max(payload_bytes, 0), BLOCK_ALIGN)
        for i, (offset, size) in enumerate(self._free):
            if size >= needed:
                remainder = size - needed
                if remainder:
                    self._free[i] = (offset + needed, remainder)
                else:
                    del self._free[i]
                self._generation += 1
                block = ShmBlock(
                    segment=self.name,
                    offset=offset,
                    size=needed,
                    generation=self._generation,
                )
                struct.pack_into("<Q", self._shm.buf, offset, self._generation)
                self._live[offset] = block
                METRICS.counter("shm.alloc_blocks").inc()
                METRICS.counter("shm.alloc_bytes").inc(needed)
                METRICS.gauge("shm.live_blocks").set(len(self._live))
                return block
        # Momentary pressure: the caller's pickling fallback — counted so
        # a chronically undersized arena shows up in metric snapshots.
        METRICS.counter("shm.alloc_full").inc()
        return None

    def payload(self, block: ShmBlock) -> memoryview:
        """The owner's writable view of a block's payload bytes."""
        self._check_live(block)
        start = block.offset + BLOCK_HEADER
        return self._shm.buf[start : block.offset + block.size]

    def free(self, block: ShmBlock) -> None:
        """Return a block to the free list (stamping the freed sentinel).

        Freeing a stale or double-freed handle raises — the sharded
        service's release protocol is strictly one ``free`` per
        ``alloc``, so a mismatch is a bug worth failing loudly on.
        """
        self._check_live(block)
        struct.pack_into("<Q", self._shm.buf, block.offset, FREED_SENTINEL)
        del self._live[block.offset]
        METRICS.counter("shm.freed_blocks").inc()
        METRICS.gauge("shm.live_blocks").set(len(self._live))
        self._free.append((block.offset, block.size))
        self._free.sort()
        # Coalesce adjacent runs so long-lived arenas do not fragment.
        merged: list[tuple[int, int]] = []
        for offset, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((offset, size))
        self._free = merged

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""
        if self._shm.buf is not None:
            self._live.clear()
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_live(self, block: ShmBlock) -> None:
        live = self._live.get(block.offset)
        if live is None or live.generation != block.generation:
            raise ValidationError(
                f"block at offset {block.offset} (generation {block.generation}) "
                "is not live in this arena — stale handle or double free"
            )


class ArenaClient:
    """Peer side: attach-once cache of segments, generation-checked views."""

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def view(self, block: ShmBlock) -> memoryview:
        """A zero-copy view of a block's payload, validated by generation."""
        shm = self._segments.get(block.segment)
        if shm is None:
            # CPython < 3.13 registers this attach with the resource
            # tracker exactly like a create.  Under the fork start
            # method owner and peer share one tracker process, so the
            # registration is a set-level no-op and the owner's unlink
            # clears it — no unregister workaround needed (and adding
            # one would strip the owner's own registration).
            shm = shared_memory.SharedMemory(name=block.segment)
            self._segments[block.segment] = shm
            METRICS.counter("shm.attaches").inc()
        METRICS.counter("shm.views").inc()
        stamped = struct.unpack_from("<Q", shm.buf, block.offset)[0]
        if stamped != block.generation:
            raise ValidationError(
                f"shared-memory block {block.segment}@{block.offset} carries "
                f"generation {stamped}, expected {block.generation} — the owner "
                "recycled it before this peer read it"
            )
        start = block.offset + BLOCK_HEADER
        return shm.buf[start : block.offset + block.size]

    def detach_all(self) -> None:
        """Drop every cached attachment (views must not outlive this)."""
        for shm in self._segments.values():
            shm.close()
        self._segments.clear()


# -- array marshalling ---------------------------------------------------------


def arrays_nbytes(arrays: dict[str, np.ndarray]) -> int:
    """Payload bytes :func:`write_arrays` needs for ``arrays``."""
    total = 0
    for arr in arrays.values():
        total = _align(total, ARRAY_ALIGN) + arr.nbytes
    return total


def write_arrays(
    payload: memoryview, arrays: dict[str, np.ndarray]
) -> list[tuple[str, str, tuple[int, ...], int]]:
    """Copy ``arrays`` head to tail into ``payload``; return the layout.

    The layout — ``(name, dtype, shape, offset)`` per array — is the
    only thing that crosses the process boundary by value.  Each array
    is written C-contiguously with a single assignment into the segment
    (the one copy the handoff pays, replacing a pickle's
    serialize + transfer + deserialize round trip).
    """
    layout: list[tuple[str, str, tuple[int, ...], int]] = []
    cursor = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        cursor = _align(cursor, ARRAY_ALIGN)
        end = cursor + arr.nbytes
        if end > len(payload):
            raise ValidationError(
                f"arrays need {end} payload bytes but the block holds "
                f"{len(payload)}"
            )
        dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=payload, offset=cursor)
        dest[...] = arr  # the one memcpy, straight into the segment
        layout.append((name, arr.dtype.str, tuple(arr.shape), cursor))
        cursor = end
    return layout


def read_arrays(
    payload: memoryview, layout: list[tuple[str, str, tuple[int, ...], int]]
) -> dict[str, np.ndarray]:
    """Zero-copy views of the arrays :func:`write_arrays` laid out.

    The returned arrays alias the shared segment: callers that outlive
    the block (the sharded service does — it releases the block back to
    the worker right after reconstruction) must copy what they keep.
    """
    out: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in layout:
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=payload, offset=offset)
        out[name] = arr
    return out
