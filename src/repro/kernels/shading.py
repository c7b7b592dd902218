"""Node-shading gather kernel: one direct-mapped table for a cohort.

A shading factor is a *pure function* of (node seed, grid index) — a
seeded ``random.Random`` draw (:meth:`Harvester._shading_at`) — so a
cache may evict anything and still return the bits a redraw would.
:class:`ShadingTable` holds one row per node and ``W`` slots per row;
index ``i`` lives in slot ``i mod W`` under a tag naming ``i``.  One
:func:`gather` serves a whole batch of (row, index) pairs; misses are
drawn once each, written straight into the output and then stored.
The vectorized sweep sets ``W`` to (longest period + forecast horizon
+ settle chunk) / shading step, rounded up to a power of two, and masks
night indices out (their slots are never drawn).  Draws come from
Python's ``random.Random``: the calling thread's scratch generator in
:mod:`repro.energy.harvester`, reseeded per factor, so neither the
table nor its harvesters hold generator state.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.profiling import hot_profiler

_PROF = hot_profiler()

#: Tag of a slot that was never filled (no grid index is this small).
_EMPTY = np.iinfo(np.int64).min


class ShadingTable:
    """Direct-mapped cache of ``rows × width`` (int64 tag, factor) slots.

    Factors are float32 when every harvester is in diet mode (exact:
    diet factors are already float32-rounded).
    """

    __slots__ = ("harvesters", "width", "tags", "values", "constant")

    def __init__(self, harvesters: Sequence, width: int) -> None:
        if width < 1 or width & (width - 1):
            raise ConfigurationError("shading table width must be a power of two")
        self.harvesters = list(harvesters)
        self.width = width
        shape = (len(self.harvesters), width)
        self.tags = np.full(shape, _EMPTY, dtype=np.int64)
        diet = all(h.diet for h in self.harvesters)
        self.values = np.zeros(shape, dtype=np.float32 if diet else np.float64)
        #: σ = 0 everywhere: every factor is exactly 1.0, nothing to draw.
        self.constant = all(h.shading_sigma == 0.0 for h in self.harvesters)


def _gather_impl(table: ShadingTable, indices: np.ndarray, rows) -> np.ndarray:
    tags = table.tags.reshape(-1)
    values = table.values.reshape(-1)
    slots = np.asarray(rows, dtype=np.int64) * table.width + (
        indices & (table.width - 1)
    )
    out = values[slots].astype(np.float64)
    miss = np.flatnonzero(tags[slots] != indices)
    if miss.size:
        miss_idx = indices[miss]
        miss_slots = slots[miss]
        # Draw each distinct (slot, index) pair once; the pair packs into
        # one sortable key (slots × index span never overflows int64).
        low = int(miss_idx.min())
        span = int(miss_idx.max()) - low + 1
        _, first, inverse = np.unique(
            miss_slots * span + (miss_idx - low),
            return_index=True,
            return_inverse=True,
        )
        new_slots = miss_slots[first]
        new_idx = miss_idx[first]
        harvesters = table.harvesters
        width = table.width
        drawn = np.array(
            [
                harvesters[slot // width]._shading_at(index)
                for slot, index in zip(new_slots.tolist(), new_idx.tolist())
            ]
        )
        out[miss] = drawn[inverse]
        # Two new indices may share a slot: store the value only where
        # the tag write survived, so every slot stays a consistent pair.
        tags[new_slots] = new_idx
        kept = tags[new_slots] == new_idx
        values[new_slots[kept]] = drawn[kept]
    return out


def gather(table: ShadingTable, indices, rows) -> np.ndarray:
    """Shading factors for ``(rows[k], indices[k])`` pairs, as float64.

    ``rows`` is an int array matching ``indices`` (or one row for all).
    Values are computed with the exact scalar expression
    (:meth:`Harvester._shading_at`) on a table miss; hits are one fancy
    index.  Callers should pre-mask night indices — skipped slots are
    simply never drawn.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.empty(0, dtype=np.float64)
    if table.constant:
        return np.ones(indices.shape)
    if not _PROF.enabled:
        return _gather_impl(table, indices, rows)
    started = time.perf_counter()
    try:
        return _gather_impl(table, indices, rows)
    finally:
        _PROF.add("shading.gather", time.perf_counter() - started)
