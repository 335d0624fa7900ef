"""Bit-sliced multi-labeling batch kernel: one index, many column layouts.

The pool-level match kernel (:mod:`repro.engine.kernel`) computes the
rows of one column layout in one set-at-a-time pass.  A batch of L
labelings over the same database would still pay L full homomorphism
enumerations even when their borders overlap almost completely (the
"many users' labelings against one database" workload shape).  This
module makes the batch a **single kernel dispatch**, and it is the only
way verdict cells are evaluated: every
:class:`~repro.engine.verdicts.VerdictMatrix` fill sends the cells the
verdict store lacks through one dispatch over the borders missing one.

:class:`MultiLabelingBatchKernel`
    Merges the borders of *all* requested column layouts into one
    deduplicated **global layout** (columns sorted by tuple, one column
    per distinct border, shared columns paid for once) and runs one
    :class:`~repro.engine.kernel.PoolMatchKernel` over it.  Each
    candidate's *global* verdict row is computed exactly once; every
    layout's local row is then a bit-gather of the global row through a
    precomputed selection vector.  Restriction is exact, not
    approximate: bit ``i`` of a row depends only on border ``i``'s facts
    and column tuple, never on which other borders share the index, so
    sliced rows are byte-identical to a per-layout kernel's and to the
    per-pair Definition 3.4 oracle (``tests/engine/test_batch_kernel.py``
    pins this across all four domains, through ``explain_batch`` too).

**Bit-sliced storage and vectorized δ-counts** — the global rows of a
whole pool × labeling batch are packed into a 2-D numpy bit matrix
(``uint64`` words, one row of words per candidate), and slicing a layout
out of it is a vectorized bit gather.  The verdict fill
(:meth:`~repro.engine.verdicts.VerdictMatrix.build` and its siblings)
packs each layout's gathered and computed bits with
:func:`pack_bit_matrix` and takes the δ1–δ4 confusion counts of every
row for :class:`~repro.engine.verdicts.BitsetVerdictProfile` from two
masked popcount passes (``numpy.bitwise_count`` over the words ANDed
with the layout's positive/negative column masks) instead of per-row
Python ``int.bit_count`` calls — see :func:`masked_popcounts`.

numpy (≥ 2.0, for ``bitwise_count``) is a declared dependency of the
package.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as _np

from ..errors import ExplanationError
from ..queries.ucq import query_key
from .kernel import PoolMatchKernel

WORD_BITS = 64


def _word_count(width: int) -> int:
    return max(1, (width + WORD_BITS - 1) // WORD_BITS)


def pack_rows(rows: Sequence[int], width: int):
    """Pack Python-int bitset rows into a ``(len(rows), words)`` uint64 matrix.

    Bit ``i`` of a row lands in word ``i // 64`` at position ``i % 64``
    (little-endian words), so masked popcounts over the words agree with
    ``int.bit_count`` over the ints.
    """
    words = _word_count(width)
    nbytes = words * 8
    buffer = bytearray(len(rows) * nbytes)
    for position, row in enumerate(rows):
        buffer[position * nbytes : (position + 1) * nbytes] = row.to_bytes(
            nbytes, "little"
        )
    return _np.frombuffer(bytes(buffer), dtype="<u8").reshape(len(rows), words)


def unpack_bits(words, width: int):
    """The ``(rows, width)`` 0/1 matrix behind a packed word matrix."""
    positions = _np.arange(width)
    word_index = positions // WORD_BITS
    shifts = (positions % WORD_BITS).astype(_np.uint64)
    if width == 0:
        return _np.zeros((words.shape[0], 0), dtype=_np.uint8)
    return ((words[:, word_index] >> shifts) & _np.uint64(1)).astype(_np.uint8)


def pack_bit_matrix(bits) -> Tuple[object, List[int]]:
    """Pack a 0/1 matrix back into (uint64 words, Python-int rows)."""
    count, width = bits.shape
    nbytes = _word_count(width) * 8
    padded = _np.zeros((count, nbytes), dtype=_np.uint8)
    if width:
        packed = _np.packbits(bits, axis=1, bitorder="little")
        padded[:, : packed.shape[1]] = packed
    words = padded.view("<u8")
    row_bytes = padded.tobytes()
    ints = [
        int.from_bytes(row_bytes[position * nbytes : (position + 1) * nbytes], "little")
        for position in range(count)
    ]
    return words, ints


def masked_popcounts(words, mask: int, width: int):
    """Per-row popcounts of ``words & mask`` — one vectorized δ-count pass.

    This is the batch replacement for the per-row
    ``(row & mask).bit_count()`` calls of
    :class:`~repro.engine.verdicts.BitsetVerdictProfile`: one call
    yields the masked counts of *every* candidate in the slab.
    """
    mask_words = pack_rows([mask], width)
    return _np.bitwise_count(words & mask_words).sum(axis=1)


class MultiLabelingBatchKernel:
    """One unified border index serving many column layouts at once.

    Built for one evaluator and a sequence of
    :class:`~repro.engine.verdicts.BorderColumns` layouts (typically the
    matrices of one labeling batch).  The global layout deduplicates
    borders across layouts — overlapping labelings share columns, and
    the whole batch shares one homomorphism enumeration per candidate.
    """

    def __init__(self, evaluator, layouts: Sequence):
        self.evaluator = evaluator
        self.layouts = list(layouts)
        self._cache = evaluator.system.specification.engine.cache
        distinct: Dict[object, None] = {}
        for layout in self.layouts:
            for border in layout.borders:
                distinct.setdefault(border, None)
        # Deterministic global order: by tuple then radius, so equal
        # batches address the same subquery tables whatever order the
        # layouts arrived in.  Borders embed their tuple, radius and
        # layers, so two distinct borders never collide on this key
        # within one database.
        ordered = sorted(distinct, key=lambda border: (repr(border.tuple), border.radius))
        from .verdicts import BorderColumns

        # The global layout files every column as a "positive": the
        # positive/negative split is a per-labeling notion that only
        # matters after slicing, while the kernel needs just the
        # (border, tuple) columns and a content-addressed key.
        self.global_columns = BorderColumns(
            positive_tuples=tuple(border.tuple for border in ordered),
            negative_tuples=(),
            borders=tuple(ordered),
            radius=self.layouts[0].radius if self.layouts else 0,
        )
        self.kernel = PoolMatchKernel(evaluator, self.global_columns)
        bit_of = {border: bit for bit, border in enumerate(ordered)}
        self._selections: List[List[int]] = [
            [bit_of[border] for border in layout.borders] for layout in self.layouts
        ]

    # -- geometry ----------------------------------------------------------

    @property
    def global_width(self) -> int:
        return self.global_columns.width

    def shared_columns(self) -> int:
        """How many column slots the dedup saved versus per-layout indexes."""
        return sum(layout.width for layout in self.layouts) - self.global_width

    # -- single rows (lazy consumers: UCQ extensions, drift) ---------------

    def _slice(self, global_row: int, layout_index: int) -> int:
        local = 0
        for bit, position in enumerate(self._selections[layout_index]):
            local |= ((global_row >> position) & 1) << bit
        return local

    def row_for(self, layout_index: int, query) -> int:
        """One query's verdict row in one layout's local bit space."""
        return self._slice(self.kernel.row(query), layout_index)

    # -- the batch dispatch ------------------------------------------------

    def rows_for(self, pools: Sequence[Sequence]) -> List[List[int]]:
        """Verdict rows for per-layout pools from one kernel dispatch.

        Distinct queries across all pools are enumerated once against
        the global index; the resulting global rows are packed into the
        uint64 bit matrix and every layout is sliced out with a
        vectorized bit gather.  ``pools[i]`` may repeat queries and may
        differ between layouts — each layout's row list is aligned with
        its own pool, and each row is byte-identical to the per-pair
        Definition 3.4 oracle's.
        """
        if len(pools) != len(self.layouts):
            raise ExplanationError(
                f"batch dispatch got {len(pools)} pools for {len(self.layouts)} layouts"
            )
        stats = self._cache.stats
        stats.count("batch_dispatches")
        ordered_queries: List = []
        global_of: Dict[Tuple, int] = {}
        for pool in pools:
            for query in pool:
                key = query_key(query)
                if key not in global_of:
                    global_of[key] = len(ordered_queries)
                    ordered_queries.append(query)
        global_rows = [self.kernel.row(query) for query in ordered_queries]
        stats.merge({"batch_rows": len(global_rows)})
        bits = unpack_bits(pack_rows(global_rows, self.global_width), self.global_width)
        results: List[List[int]] = []
        for selection, pool in zip(self._selections, pools):
            if selection:
                local_bits = bits[:, selection]
            else:
                local_bits = _np.zeros((len(ordered_queries), 0), dtype=_np.uint8)
            _, local_ints = pack_bit_matrix(local_bits)
            results.append([local_ints[global_of[query_key(query)]] for query in pool])
        return results

    def __str__(self):
        return (
            f"MultiLabelingBatchKernel(layouts={len(self.layouts)}, "
            f"global_width={self.global_width}, shared={self.shared_columns()})"
        )
