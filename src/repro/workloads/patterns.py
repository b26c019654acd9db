"""Primitive access-pattern generators.

Each pattern is a small stateful object with a ``next_block(rng) ->
(block, is_write)`` method; :class:`PatternMix` draws from several patterns
with fixed weights to build an application's composite behaviour.  All
patterns work in units of 64-byte blocks within a bounded region and are
fully deterministic given the seed.

The patterns were chosen for their distinct effect on delta-encoded
counters (see :mod:`repro.workloads` for the mapping to paper behaviour).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lint.contracts import BLOCK_BYTES


class sequential_stream:
    """Full sequential sweep over a buffer, wrapping around.

    Models streaming producers/consumers (dedup's pipeline buffers).
    Every block of the buffer is touched once per lap, so per-block write
    counts stay in lock-step -- the delta-reset-friendly case.
    """

    def __init__(self, buffer_blocks: int, write_fraction: float = 1.0,
                 base_block: int = 0):
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        self.buffer_blocks = buffer_blocks
        self.write_fraction = write_fraction
        self.base_block = base_block
        self._position = 0

    def next_block(self, rng: random.Random) -> tuple:
        block = self.base_block + self._position
        self._position = (self._position + 1) % self.buffer_blocks
        return block, rng.random() < self.write_fraction


class strided_sweep:
    """Strided sweep: touch runs of ``run`` blocks every ``stride`` blocks.

    Models row/column processing with padding (vips image rows: a run is
    the pixels of one row that land in memory, the skipped remainder is
    other planes/padding).  Blocks off the stride are never written, so
    their deltas pin at zero -- delta_min stays 0 and neither reset nor
    re-encode can fire.  When ``run`` aligns with a delta-group (16
    blocks), the written blocks of each block-group concentrate in one
    delta-group, the case dual-length widening absorbs well.
    """

    def __init__(self, buffer_blocks: int, stride: int, run: int = 1,
                 write_fraction: float = 1.0, base_block: int = 0):
        if stride <= 0 or buffer_blocks <= 0 or run <= 0:
            raise ValueError("stride, run and buffer_blocks must be positive")
        if run > stride:
            raise ValueError("run must not exceed stride")
        self.buffer_blocks = buffer_blocks
        self.stride = stride
        self.run = run
        self.write_fraction = write_fraction
        self.base_block = base_block
        self._position = 0  # start of the current run
        self._offset = 0  # within the run

    def next_block(self, rng: random.Random) -> tuple:
        block = self.base_block + self._position + self._offset
        self._offset += 1
        if self._offset >= self.run:
            self._offset = 0
            self._position += self.stride
            if self._position >= self.buffer_blocks:
                self._position = 0
        return block, rng.random() < self.write_fraction


class zipf_hot_set:
    """Zipf-skewed accesses over a hot set (heavy head, long tail).

    Models pointer-heavy structures with popularity skew (ferret's
    database, canneal's netlist nodes).  Hot blocks race ahead of their
    group neighbours, defeating convergence.
    """

    def __init__(self, hot_blocks: int, write_fraction: float,
                 s: float = 1.2, base_block: int = 0,
                 cluster_blocks: int = 1, cluster_stride: int = 1,
                 span_blocks: int | None = None, run_blocks: int = 1):
        if hot_blocks <= 0 or cluster_blocks <= 0 or cluster_stride <= 0:
            raise ValueError(
                "hot_blocks, cluster_blocks and cluster_stride must be "
                "positive"
            )
        if run_blocks <= 0:
            raise ValueError("run_blocks must be positive")
        # Sequential-run state (object-granularity locality for read-heavy
        # uses; keep run_blocks=1 for write-hot sets so counter dynamics
        # stay per-block).
        self.run_blocks = run_blocks
        self._run_current = 0
        self._run_remaining = 0
        self.hot_blocks = hot_blocks
        self.write_fraction = write_fraction
        self.base_block = base_block
        self.cluster_blocks = cluster_blocks
        self.cluster_stride = cluster_stride
        self.span_blocks = span_blocks or hot_blocks
        # Precompute the CDF once; sampling is then a bisect.
        weights = [1.0 / (rank + 1) ** s for rank in range(hot_blocks)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        self._cdf = cumulative
        # Spatial placement: popularity ranks fill *clusters* whose
        # geometry is what the counter-scheme comparisons hinge on:
        #
        # * cluster_blocks=1                     -- isolated hot blocks
        #   scattered among cold neighbours (delta-group widening captures
        #   each one; delta_min stays 0),
        # * cluster_blocks=16, cluster_stride=1  -- a hot object filling
        #   one aligned delta-group (the single-widening best case),
        # * cluster_blocks=2, cluster_stride=16  -- hot pairs landing in
        #   two delta-groups of one block-group (only one can widen: the
        #   dual-length worst case, cf. facesim in Table 2).
        #
        # Cluster origins are scattered pseudo-randomly over
        # ``span_blocks`` so hot clusters sit far apart when the span
        # exceeds the hot set.
        slot_blocks = cluster_blocks * cluster_stride
        slots = max(1, self.span_blocks // slot_blocks)
        order = list(range(slots))
        random.Random(0xC0FFEE ^ hot_blocks ^ slots).shuffle(order)
        placement = []
        for rank in range(hot_blocks):
            cluster = order[(rank // cluster_blocks) % slots]
            offset = rank % cluster_blocks
            placement.append(
                (cluster * slot_blocks + offset * cluster_stride)
                % self.span_blocks
            )
        self._placement = placement

    def next_block(self, rng: random.Random) -> tuple:
        import bisect

        if self._run_remaining > 0:
            block = self.base_block + (
                self._run_current % self.span_blocks
            )
            self._run_current += 1
            self._run_remaining -= 1
            return block, rng.random() < self.write_fraction
        rank = bisect.bisect_left(self._cdf, rng.random())
        rank = min(rank, self.hot_blocks - 1)
        placed = self._placement[rank]
        if self.run_blocks > 1:
            self._run_current = placed + 1
            self._run_remaining = self.run_blocks - 1
        return self.base_block + placed, rng.random() < self.write_fraction


class uniform_scatter:
    """Uniform random accesses over the whole footprint.

    Models cold scans and random swaps (canneal's simulated annealing).
    ``run_blocks`` > 1 adds object-granularity spatial locality: each
    random jump is followed by a short sequential run, the way real code
    touches a multi-line object after chasing a pointer to it.  (This is
    what gives the metadata cache its residual hit rate on scatter-heavy
    applications: neighbouring blocks share a counter metadata block.)
    """

    def __init__(self, footprint_blocks: int, write_fraction: float,
                 base_block: int = 0, run_blocks: int = 1):
        if footprint_blocks <= 0 or run_blocks <= 0:
            raise ValueError(
                "footprint_blocks and run_blocks must be positive"
            )
        self.footprint_blocks = footprint_blocks
        self.write_fraction = write_fraction
        self.base_block = base_block
        self.run_blocks = run_blocks
        self._current = 0
        self._remaining = 0

    def next_block(self, rng: random.Random) -> tuple:
        if self._remaining <= 0:
            self._current = rng.randrange(self.footprint_blocks)
            self._remaining = self.run_blocks
        block = self.base_block + (self._current % self.footprint_blocks)
        self._current += 1
        self._remaining -= 1
        return block, rng.random() < self.write_fraction


class tile_burst:
    """Concentrated write bursts over small tiles, several tiles in
    flight at once.

    Models solver kernels updating sub-blocks of large meshes (facesim).
    With tiles smaller than a delta-group and several active tiles
    landing in the *same* block-group, multiple delta-groups overflow
    concurrently -- only one can claim the dual-length extension, which
    is exactly the facesim pathology of Table 2.
    """

    def __init__(self, footprint_blocks: int, tile_blocks: int,
                 burst_writes: int, concurrent_tiles: int,
                 write_fraction: float = 0.9):
        if min(footprint_blocks, tile_blocks, burst_writes,
               concurrent_tiles) <= 0:
            raise ValueError("all tile_burst parameters must be positive")
        self.footprint_blocks = footprint_blocks
        self.tile_blocks = tile_blocks
        self.burst_writes = burst_writes
        self.concurrent_tiles = concurrent_tiles
        self.write_fraction = write_fraction
        self._tiles = []  # list of [tile_base, writes_remaining]
        self._cursor = 0

    def _refill(self, rng: random.Random) -> None:
        num_tiles = max(1, self.footprint_blocks // self.tile_blocks)
        while len(self._tiles) < self.concurrent_tiles:
            tile = rng.randrange(num_tiles)
            self._tiles.append([tile * self.tile_blocks, self.burst_writes])

    def next_block(self, rng: random.Random) -> tuple:
        self._refill(rng)
        slot = self._cursor % len(self._tiles)
        self._cursor += 1
        tile = self._tiles[slot]
        block = tile[0] + rng.randrange(self.tile_blocks)
        tile[1] -= 1
        if tile[1] <= 0:
            self._tiles.pop(slot)
        return block, rng.random() < self.write_fraction


@dataclass(frozen=True)
class _WeightedPattern:
    pattern: object
    weight: float


class PatternMix:
    """Weighted composite of patterns, emitting full trace records.

    ``gap_mean`` controls memory intensity: gaps are drawn geometrically
    with that mean, so ``1000 / (gap_mean + 1)`` approximates the trace's
    accesses-per-kilo-instruction.
    """

    def __init__(self, patterns: list, gap_mean: float, seed: int,
                 region_blocks: int):
        if not patterns:
            raise ValueError("need at least one (pattern, weight) pair")
        if gap_mean < 0 or region_blocks <= 0:
            raise ValueError("gap_mean must be >= 0, region_blocks > 0")
        total = sum(weight for _, weight in patterns)
        if total <= 0:
            raise ValueError("pattern weights must sum to a positive value")
        self._patterns = [
            _WeightedPattern(p, w / total) for p, w in patterns
        ]
        self._gap_mean = gap_mean
        self._rng = random.Random(seed)
        self._region_blocks = region_blocks

    def _pick(self) -> object:
        roll = self._rng.random()
        acc = 0.0
        for entry in self._patterns:
            acc += entry.weight
            if roll < acc:
                return entry.pattern
        return self._patterns[-1].pattern

    def generate(self, accesses: int) -> list:
        """Produce ``accesses`` trace tuples (gap, is_write, address)."""
        rng = self._rng
        out = []
        gap_mean = self._gap_mean
        region = self._region_blocks
        for _ in range(accesses):
            gap = int(rng.expovariate(1.0 / gap_mean)) if gap_mean > 0 else 0
            block, is_write = self._pick().next_block(rng)
            out.append((gap, is_write, (block % region) * BLOCK_BYTES))
        return out


__all__ = [
    "sequential_stream",
    "strided_sweep",
    "zipf_hot_set",
    "uniform_scatter",
    "tile_burst",
    "PatternMix",
    "BLOCK_BYTES",
]
