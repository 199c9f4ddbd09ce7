"""Sparse byte store backing the simulated devices.

Stores each write as the immutable ``bytes`` it was handed, keyed by
start offset and kept sorted. A ``bytes`` argument is stored **by
reference** — a finalized write unit lands on its drive without being
copied — and anything mutable (``bytearray``, ``memoryview``) is copied
exactly once, so the caller may reuse its buffer. A stored piece is
never extended, merged or moved: programs that abut (Purity fills an
8 MiB allocation unit 1 MiB at a time) stay separate objects, and only
the *view* is coalesced — ``extents()`` and ``run_count`` report
maximal contiguous ranges, whatever pieces they are made of.

A read that falls inside one piece is one slice of it (the whole piece
comes back as the object that was written); a read across pieces or
holes is assembled once, holes reading as zeros (flash reads of
never-written pages return deterministic data in practice; zeros are a
faithful stand-in). Overlapping writes split or truncate the pieces
beneath them, and discard punches holes; only there are surviving
bytes re-sliced.
"""

import bisect


class SparseByteStore:
    """A sparse, writable byte address space."""

    def __init__(self):
        self._starts = []  # sorted piece start offsets
        self._pieces = {}  # start offset -> bytes

    def __len__(self):
        """Total bytes currently stored (excludes holes)."""
        return sum(len(piece) for piece in self._pieces.values())

    @property
    def run_count(self):
        """Number of maximal contiguous stored ranges (fragmentation indicator)."""
        return sum(1 for _extent in self.extents())

    def write(self, offset, data):
        """Write ``data`` at ``offset``, replacing anything beneath it."""
        if offset < 0:
            raise ValueError("negative offset")
        if not data:
            return
        self.discard(offset, len(data))
        bisect.insort(self._starts, offset)
        self._pieces[offset] = data if type(data) is bytes else bytes(data)

    def _first_overlapping(self, offset):
        """Index of the first piece that can reach past ``offset``."""
        index = bisect.bisect_right(self._starts, offset) - 1
        if index < 0:
            return 0
        start = self._starts[index]
        if start + len(self._pieces[start]) <= offset:
            index += 1
        return index

    def read(self, offset, nbytes):
        """Read ``nbytes`` at ``offset``; holes read as zero bytes."""
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        if nbytes == 0:
            return b""
        end = offset + nbytes
        starts = self._starts
        index = self._first_overlapping(offset)
        parts = []
        cursor = offset
        while index < len(starts):
            start = starts[index]
            if start >= end:
                break
            piece = self._pieces[start]
            piece_end = start + len(piece)
            if start <= offset and end <= piece_end:
                return piece[offset - start : end - start]
            if start > cursor:
                parts.append(bytes(start - cursor))
                cursor = start
            upto = min(piece_end, end)
            parts.append(memoryview(piece)[cursor - start : upto - start])
            cursor = upto
            index += 1
        if cursor < end:
            parts.append(bytes(end - cursor))
        return b"".join(parts)

    def discard(self, offset, nbytes):
        """Punch a hole over [offset, offset+nbytes)."""
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        if nbytes == 0:
            return
        end = offset + nbytes
        starts = self._starts
        index = self._first_overlapping(offset)
        while index < len(starts):
            start = starts[index]
            if start >= end:
                break
            piece = self._pieces.pop(start)
            piece_end = start + len(piece)
            if start < offset:
                # The head survives under its old key.
                self._pieces[start] = piece[: offset - start]
                index += 1
            else:
                del starts[index]
            if piece_end > end:
                starts.insert(index, end)
                self._pieces[end] = piece[end - start :]
                break

    def clear(self):
        """Drop all stored data."""
        self._starts.clear()
        self._pieces.clear()

    def extents(self):
        """Yield (start, length) for each maximal stored range, in offset order."""
        run_start = run_end = None
        for start in self._starts:
            if start != run_end:
                if run_end is not None:
                    yield run_start, run_end - run_start
                run_start = start
            run_end = start + len(self._pieces[start])
        if run_end is not None:
            yield run_start, run_end - run_start
