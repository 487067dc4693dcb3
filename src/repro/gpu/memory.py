"""Memory-system models: coalescing, bank conflicts, and cache reuse.

These helpers turn *data-layout facts* (how many elements a warp touches, at
what stride, through which cache) into the event counts a real Kepler GPU
would generate.  They are the heart of the reproduction: the paper attributes
its speedups to (i) fewer global load transactions (Fig. 2-bottom), (ii)
temporal locality making the second pass over each CSR row a cache hit, and
(iii) aggregation moved from global atomics into shared memory and registers.

All functions are pure and vectorized so kernels can evaluate them per warp
over the whole input at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec

DOUBLE = 8  # sizeof(double), the precision used throughout the paper


def coalesced_transactions(total_bytes: float,
                           transaction_bytes: int = 128) -> float:
    """Transactions for a perfectly coalesced stream of ``total_bytes``.

    A warp reading 32 consecutive doubles (256 B) needs two 128-B
    transactions; streaming an array costs ``ceil(bytes / 128)`` overall.
    """
    if total_bytes <= 0:
        return 0.0
    return math.ceil(total_bytes / transaction_bytes)


def segment_transactions(segment_lengths: np.ndarray, itemsize: int = DOUBLE,
                         transaction_bytes: int = 128) -> float:
    """Transactions to stream many independent contiguous segments.

    Models CSR-vector row reads: each row's ``values``/``col_idx`` span is
    contiguous but starts at an arbitrary offset, so each segment pays its own
    (possibly partial) leading and trailing transaction:
    ``ceil(len * itemsize / T) + (1 misalignment transaction on average)/2``.
    We charge the conservative ``floor`` of the expected extra line.
    """
    lengths = np.asarray(segment_lengths, dtype=np.int64)
    if lengths.size == 0:
        return 0.0
    bytes_ = lengths * itemsize
    per_seg = np.ceil(bytes_ / transaction_bytes)
    # Unaligned segment starts touch one extra line roughly half the time;
    # empty segments cost nothing.
    extra = 0.5 * np.count_nonzero(lengths)
    return float(per_seg.sum() + extra)


def warp_segment_transactions(row_nnz: np.ndarray, itemsize: int = DOUBLE,
                              rows_per_group: int = 16,
                              transaction_bytes: int = 128) -> float:
    """Transactions for a CSR-vector pass counted at *warp* granularity.

    With vector size VS, one 32-thread warp covers ``32 / VS`` consecutive
    rows whose CSR segments are adjacent in memory, so the warp issues one
    coalesced stream per group — short rows share transactions instead of
    each paying a full line.  Each group pays one extra line for the
    leading/trailing misalignment of its span.
    """
    lengths = np.asarray(row_nnz, dtype=np.int64)
    if lengths.size == 0:
        return 0.0
    g = max(1, int(rows_per_group))
    pad = (-lengths.size) % g
    if pad:
        lengths = np.concatenate([lengths, np.zeros(pad, dtype=np.int64)])
    group_nnz = lengths.reshape(-1, g).sum(axis=1)
    bytes_ = group_nnz * itemsize
    per_group = np.ceil(bytes_ / transaction_bytes)
    extra = np.count_nonzero(group_nnz)          # misalignment line
    return float(per_group.sum() + extra)


@dataclass(frozen=True)
class SegmentPassTemplate:
    """Structure-invariant transaction counts for one CSR row pass.

    For a fixed row-length distribution and warp partitioning, one pass over
    the matrix touches the ``values`` (8 B) and ``col_idx`` (4 B) streams; the
    per-pass transaction counts depend only on structure, so kernels that
    re-walk the same matrix every iteration can compute them once.  The
    stored numbers are exactly ``warp_segment_transactions(row_nnz, 8, g)``
    and ``(..., 4, g)`` — same grouping, same rounding — so templated and
    direct accounting agree to the bit.
    """

    tx_values: float      # 8-byte stream (doubles)
    tx_col_idx: float     # 4-byte stream (device column indices)

    @property
    def pass_transactions(self) -> float:
        """Total for one full pass over values + column indices."""
        return self.tx_values + self.tx_col_idx


def warp_segment_template(row_nnz: np.ndarray, rows_per_group: int = 16,
                          transaction_bytes: int = 128
                          ) -> SegmentPassTemplate:
    """Profile-returning variant of :func:`warp_segment_transactions`.

    Computes the per-group nnz once and derives both itemsize counts from
    it, instead of re-padding and re-reducing the row-length array twice per
    kernel call.
    """
    lengths = np.asarray(row_nnz, dtype=np.int64)
    if lengths.size == 0:
        return SegmentPassTemplate(0.0, 0.0)
    g = max(1, int(rows_per_group))
    pad = (-lengths.size) % g
    if pad:
        lengths = np.concatenate([lengths, np.zeros(pad, dtype=np.int64)])
    group_nnz = lengths.reshape(-1, g).sum(axis=1)
    extra = np.count_nonzero(group_nnz)
    tx = []
    for itemsize in (DOUBLE, 4):
        per_group = np.ceil(group_nnz * itemsize / transaction_bytes)
        tx.append(float(per_group.sum() + extra))
    return SegmentPassTemplate(tx[0], tx[1])


def uncoalesced_transactions(n_accesses: float) -> float:
    """Transactions for fully scattered accesses (one line per access).

    This is the access pattern of a column-major walk over a row-major CSR
    structure — the reason the paper calls cuSPARSE's transpose ``csrmv``
    "very slow".
    """
    return float(max(0.0, n_accesses))


def gather_transactions(indices: np.ndarray, itemsize: int = DOUBLE,
                        transaction_bytes: int = 128,
                        warp_size: int = 32) -> float:
    """Transactions for a warp-cooperative gather ``dst[i] = src[idx[i]]``.

    Splits ``indices`` into warp-sized groups and counts the *distinct* memory
    lines each group touches — exactly what the coalescing hardware does.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    lines = (idx * itemsize) // transaction_bytes
    pad = (-lines.size) % warp_size
    if pad:
        lines = np.concatenate([lines, np.full(pad, -1, dtype=np.int64)])
    groups = lines.reshape(-1, warp_size)
    # distinct lines per warp: sort each row, count strictly-increasing steps
    s = np.sort(groups, axis=1)
    distinct = 1 + np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)
    # subtract the padding sentinel line where present
    if pad:
        distinct[-1] -= 1
    return float(distinct.sum())


def shared_bank_conflict_replays(stride_elements: int, warp_size: int = 32,
                                 banks: int = 32,
                                 words_per_element: int = 2) -> int:
    """Serialized replays for a warp accessing shared memory at a stride.

    With 32 banks of 4-byte words, a stride of ``s`` doubles maps lanes onto
    ``banks / gcd(s * words, banks)`` distinct banks; the conflict degree is
    the warp size divided by that count, and replays are ``degree - 1``.
    """
    if stride_elements <= 0:
        return 0
    word_stride = stride_elements * words_per_element
    distinct = banks // math.gcd(word_stride, banks)
    degree = max(1, warp_size // max(1, distinct))
    return degree - 1


@dataclass
class CacheModel:
    """Reuse model for the fused kernel's second pass over each CSR row.

    The paper: "if we ensure that the second load of ``X[r,:]`` is performed
    by the same threads that previously used the row, due to temporal locality
    the second load will likely be a cache hit.  Such behaviour can be
    guaranteed when the number of non-zeros per row is bounded by the cache
    size."  We model the per-SM share of L2 + L1/texture available to each
    concurrently active vector and give the second pass a hit fraction equal
    to the fraction of the row that still fits.
    """

    device: DeviceSpec
    enabled: bool = True

    def second_pass_hit_fraction(self, row_nnz: np.ndarray,
                                 active_vectors_per_sm: int,
                                 itemsize: int = DOUBLE) -> np.ndarray:
        """Per-row fraction of second-pass loads served by cache."""
        nnz = np.asarray(row_nnz, dtype=np.float64)
        if not self.enabled:
            return np.zeros_like(nnz)
        cache_per_sm = (self.device.l2_cache_bytes / self.device.num_sms
                        + self.device.texture_cache_bytes_per_sm)
        budget = cache_per_sm / max(1, active_vectors_per_sm)
        # both the values and the column indices (4B) must be resident
        row_bytes = nnz * (itemsize + 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(row_bytes > 0,
                            np.minimum(1.0, budget / np.maximum(row_bytes, 1)),
                            1.0)
        return frac

    def second_pass_miss_weight(self, row_nnz: np.ndarray,
                                active_vectors_per_sm: int,
                                itemsize: int = DOUBLE) -> float:
        """nnz-weighted miss fraction of the second pass over each row.

        The scalar the fused kernels actually multiply into their re-read
        traffic: ``sum(row_nnz * (1 - hit)) / max(1, nnz)``.  Structure- and
        device-dependent only, so a kernel profile computes it once per
        (matrix, params, device) and reuses it on every warm call.
        """
        nnz = np.asarray(row_nnz, dtype=np.float64)
        hit = self.second_pass_hit_fraction(nnz, active_vectors_per_sm,
                                            itemsize)
        return float((nnz * (1.0 - hit)).sum()) / max(1.0, float(nnz.sum()))

    def texture_hit_ratio(self) -> float:
        """Hit ratio for a read-only vector bound to texture memory."""
        return self.device.texture_hit_ratio if self.enabled else 0.0
