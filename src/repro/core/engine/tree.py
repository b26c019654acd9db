"""Bonsai Merkle tree over counter metadata (paper Section 2.2).

Rogers et al.'s observation: with the counter mixed into every data MAC,
protecting the *counters* against tampering/replay transitively protects
the data -- so the integrity tree only needs to cover the (much smaller)
counter storage.  The paper layers its optimizations on this structure:
delta encoding shrinks the counter storage 6-7x, which removes one whole
tree level (5 -> 4 off-chip levels for the 512 MB region of Table 1).

Structure
---------
* Leaves are the 64-byte counter metadata blocks.
* Interior nodes hold ``arity`` (default 8) 64-bit child hashes, i.e. one
  64-byte node per 8 children.
* Levels shrink by 8x until a level fits the on-chip SRAM budget (3 KB in
  Table 1); that level is trusted and needs no further hashing.

Hashing is a keyed 64-bit hash, tweaked by (level, index) so identical
content at different tree positions hashes differently -- this is what
defeats block-relocation and replay splicing.  The hash is built from the
SplitMix64 mixer: not a cryptographic MAC, but the reproduction needs
*structural* fidelity (what is covered by what), and the test suite's
tamper/replay checks only require collision-resistance against the
specific manipulations modelled.

Storage
-------
The tree has a fixed shape, so each level is one uint64 matrix: row
``j`` of level ``l`` is node ``(l, j)``, its columns the little-endian
64-bit child hashes (zero-padded to 64 bytes), so a row's bytes are the
node's bytes.  Interior levels ``1 .. top-1`` are off-chip (DRAM,
corruptible); the top level is the trusted on-chip SRAM.  In the
degenerate case where the leaves themselves fit on-chip (tiny test
trees) the top is a ``(leaves,)`` vector of bare leaf hashes.  The
leaves (level 0) are the engine's counter storage, not held here.

Updates and verifies run one level-by-level walk over any number of
leaves (:meth:`BonsaiMerkleTree.update_leaves` /
:meth:`~BonsaiMerkleTree.verify_leaves`).  Per level, a verify is one
``level[parents, slots] == hashes`` gather ANDed into the verdicts, an
update one ``level[parents, slots] = hashes`` scatter, and each touched
parent row is hashed once -- in one ``hash_nodes`` call per level, which
a batch kernel can serve.  Walks over at most :data:`SMALL_WALK` leaves
(the scalar engine's one-leaf ``update_leaf``/``verify_leaf``, a
sequential flush's few groups) do the same per-level work on Python
ints, where numpy's per-call cost would dominate.

:attr:`~BonsaiMerkleTree.offchip` and :attr:`~BonsaiMerkleTree.onchip`
are mutable mapping views (``(level, index)`` / ``index`` -> node bytes)
over the level arrays, so tests and the fault harness can read and
corrupt arbitrary nodes and verify detection.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.crypto.prf import splitmix64
from repro.fast.prf_batch import splitmix64_inplace

NODE_BYTES = 64
HASH_BYTES = 8
_MASK64 = (1 << 64) - 1
#: one node word: a little-endian 64-bit child hash
_WORD = np.dtype("<u8")

#: walks over at most this many leaves take the Python per-level path
#: (a one-leaf update: ~27 us, against ~55 us through numpy's per-call
#: cost; DESIGN §10)
SMALL_WALK = 8

#: ``hash_nodes(rows, level, indices)``: the hashes (uint64 array) of one
#: level's nodes, given as the rows of an ``(M, words)`` uint64 matrix
#: and their int64 indices
HashNodes = Callable[[np.ndarray, int, np.ndarray], np.ndarray]


def node_hash(key: int, data: bytes, level: int, index: int) -> int:
    """Keyed, position-tweaked 64-bit hash of a 64-byte node/leaf."""
    acc = splitmix64(key ^ (level << 48) ^ index)
    for offset in range(0, len(data), 8):
        word = int.from_bytes(data[offset : offset + 8], "little")
        acc = splitmix64(acc ^ word)
    return acc & _MASK64


def _word_chain(key: int, words: list[int], level: int, index: int) -> int:
    """:func:`node_hash` of a node given as its 64-bit words."""
    acc = splitmix64(key ^ (level << 48) ^ index)
    for word in words:
        acc = splitmix64(acc ^ word)
    return acc


def node_hashes(
    key: int, rows: np.ndarray, level: int, indices: np.ndarray
) -> np.ndarray:
    """:func:`node_hash` of each row of an ``(M, words)`` uint64 matrix,
    one scalar chain per row: the default ``hash_nodes`` of the walk."""
    return np.array(
        [
            _word_chain(key, words, level, index)
            for words, index in zip(
                rows.tolist(), np.asarray(indices).tolist()
            )
        ],
        dtype=np.uint64,
    )


def node_hash_rows(
    key: int, rows: np.ndarray, level: int, indices: np.ndarray
) -> np.ndarray:
    """:func:`node_hash` of each row of an ``(M, words)`` uint64 matrix
    as one vectorized SplitMix64 chain: one in-place round per word
    column, at any row count (the tree build and the ``tree.hash``
    kernel)."""
    acc = np.asarray(indices).astype(np.uint64)
    acc ^= np.uint64((key ^ (level << 48)) & _MASK64)
    scratch = np.empty_like(acc)
    splitmix64_inplace(acc, scratch)
    for column in rows.T:
        acc ^= column
        splitmix64_inplace(acc, scratch)
    return acc


@dataclass(frozen=True)
class TreeGeometry:
    """Shape of the tree: per-level node counts, bottom (wide) to top.

    ``level_sizes[0]`` is the number of leaves; subsequent entries are
    interior levels; the last entry is the on-chip (trusted) level.
    ``offchip_levels`` counts the metadata levels that live in DRAM and
    can therefore cost extra memory transactions: the leaf/counter level
    plus every interior level except the on-chip top.  For Table 1's
    baseline this evaluates to 5; with delta-encoded counters, 4.
    """

    num_leaves: int
    arity: int
    onchip_bytes: int
    level_sizes: tuple[int, ...]

    @classmethod
    def for_leaves(
        cls, num_leaves: int, arity: int = 8, onchip_bytes: int = 3072
    ) -> TreeGeometry:
        if num_leaves <= 0:
            raise ValueError("num_leaves must be positive")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        onchip_nodes = max(1, onchip_bytes // NODE_BYTES)
        sizes = [num_leaves]
        while sizes[-1] > onchip_nodes:
            sizes.append(-(-sizes[-1] // arity))
        return cls(num_leaves, arity, onchip_bytes, tuple(sizes))

    @property
    def offchip_levels(self) -> int:
        """Metadata levels stored in DRAM: leaves + off-chip interiors."""
        return len(self.level_sizes) - 1

    @property
    def offchip_node_count(self) -> int:
        """Interior nodes living in DRAM (excludes leaves and the top)."""
        return sum(self.level_sizes[1:-1])

    @property
    def offchip_bytes(self) -> int:
        return self.offchip_node_count * NODE_BYTES


class BonsaiMerkleTree:
    """Functional integrity tree with corruptible off-chip storage."""

    def __init__(
        self,
        num_leaves: int,
        key: int,
        arity: int = 8,
        onchip_bytes: int = 3072,
        initial_leaf: bytes = b"\x00" * NODE_BYTES,
    ) -> None:
        self.geometry = TreeGeometry.for_leaves(num_leaves, arity, onchip_bytes)
        self._key = key
        self._arity = arity
        self._top_level = len(self.geometry.level_sizes) - 1
        #: ``_levels[l]`` is level ``l``'s ``(nodes, words)`` matrix for
        #: ``l >= 1``; ``_levels[0]`` is the degenerate top's leaf-hash
        #: vector (empty when the tree has interior levels)
        self._levels: list[np.ndarray] = []
        #: per interior level below the top, scratch for deduplicating
        #: a walk's touched parents (any content is valid)
        self._marks = [
            np.empty(size, dtype=np.int64)
            for size in self.geometry.level_sizes[1:-1]
        ]
        self._build(initial_leaf)

    # -- construction -------------------------------------------------------

    def _build(self, initial_leaf: bytes) -> None:
        """Every level in one vectorized chain: all leaves hold
        ``initial_leaf``, so each level's hashes come from one
        :func:`node_hash_rows` over the level below."""
        self._check_leaf(initial_leaf)
        sizes, arity = self.geometry.level_sizes, self._arity
        words = np.frombuffer(initial_leaf, dtype=_WORD)
        rows = np.broadcast_to(words, (sizes[0], len(words)))
        hashes = node_hash_rows(self._key, rows, 0, np.arange(sizes[0]))
        if self._top_level == 0:
            self._levels = [hashes]
            return
        width = max(arity, NODE_BYTES // HASH_BYTES)
        self._levels = [np.empty(0, dtype=_WORD)]
        for level in range(1, self._top_level + 1):
            slots = np.zeros(sizes[level] * arity, dtype=_WORD)
            slots[: len(hashes)] = hashes
            matrix = np.zeros((sizes[level], width), dtype=_WORD)
            matrix[:, :arity] = slots.reshape(-1, arity)
            self._levels.append(matrix)
            hashes = node_hash_rows(
                self._key, matrix, level, np.arange(sizes[level])
            )

    @property
    def key(self) -> int:
        """The hash key (a batch ``hash_nodes`` kernel binds it)."""
        return self._key

    @property
    def offchip(self) -> MutableMapping[tuple[int, int], bytes]:
        """Off-chip interior nodes: ``(level, index)`` -> node bytes."""
        return _NodeView(self, offchip=True)

    @property
    def onchip(self) -> MutableMapping[int, bytes | int]:
        """The trusted top level: ``index`` -> node bytes (a bare 64-bit
        leaf hash in the degenerate all-on-chip case)."""
        return _NodeView(self, offchip=False)

    # -- the leaf-to-root walk (``hash_nodes`` defaults to the scalar loop) --

    def _checked(
        self, indices: Sequence[int], leaves: Sequence[bytes]
    ) -> tuple[list[int], list[bytes]]:
        indices = (
            indices.tolist()
            if isinstance(indices, np.ndarray)
            else list(indices)
        )
        leaves = list(leaves)
        if len(indices) != len(leaves):
            raise ValueError("one leaf per index")
        if indices and not (
            0 <= min(indices) and max(indices) < self.geometry.num_leaves
        ):
            raise IndexError("leaf index out of range")
        for leaf in leaves:
            self._check_leaf(leaf)
        return indices, leaves

    def _leaf_hashes(
        self,
        indices: list[int],
        leaves: list[bytes],
        hash_nodes: HashNodes | None,
    ) -> np.ndarray:
        if hash_nodes is None or len(set(map(len, leaves))) != 1:
            # Scalar, or no row matrix: no leaves, or leaves of unequal
            # length (a tampered counter-storage entry).
            return np.array(
                [
                    node_hash(self._key, leaf, 0, index)
                    for leaf, index in zip(leaves, indices)
                ],
                dtype=np.uint64,
            )
        rows = np.frombuffer(b"".join(leaves), dtype=_WORD).reshape(
            len(leaves), -1
        )
        return hash_nodes(rows, 0, np.array(indices, dtype=np.int64))

    def _hash_small(
        self,
        matrix: np.ndarray,
        touched: list[int],
        level: int,
        hash_nodes: HashNodes | None,
    ) -> list[int]:
        if hash_nodes is None:
            return [
                _word_chain(self._key, matrix[index].tolist(), level, index)
                for index in touched
            ]
        return hash_nodes(
            matrix[touched], level, np.array(touched, dtype=np.int64)
        ).tolist()

    def _touched(
        self, level: int, parents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``parents`` (at ``level``) and each entry's row
        among them, without a sort: every parent's mark names one of its
        entries (whichever the scatter kept), and that entry stands for
        it."""
        mark = self._marks[level - 1]
        entries = np.arange(len(parents))
        mark[parents] = entries
        chosen = mark[parents]
        first = chosen == entries
        return parents[first], (np.cumsum(first) - 1)[chosen]

    def verify_leaf(self, index: int, leaf: bytes) -> bool:
        """Walk leaf -> root, recomputing hashes from off-chip nodes.

        Returns False on any mismatch: a corrupted leaf, a corrupted
        interior node, or a consistent-but-stale (replayed) subtree.
        """
        return bool(self.verify_leaves([index], [leaf])[0])

    def update_leaf(self, index: int, leaf: bytes) -> None:
        """Install new leaf content and rehash its path to the root."""
        self.update_leaves([index], [leaf])

    def verify_leaves(
        self,
        indices: Sequence[int],
        leaves: Sequence[bytes],
        hash_nodes: HashNodes | None = None,
    ) -> np.ndarray:
        """:meth:`verify_leaf` for each (index, leaf), in one walk: a
        bool array of verdicts.

        A verdict is the AND of the comparisons along that leaf's path;
        every touched ancestor is read and hashed once.
        """
        indices, leaves = self._checked(indices, leaves)
        hashes = self._leaf_hashes(indices, leaves, hash_nodes)
        if self._top_level == 0:
            return self._levels[0][indices] == hashes
        if len(indices) <= SMALL_WALK:
            return np.array(
                self._verify_small(indices, hashes.tolist(), hash_nodes),
                dtype=bool,
            )
        children = np.array(indices, dtype=np.int64)
        hash_nodes = hash_nodes or self._scalar_hashes
        verdicts = np.ones(len(children), dtype=bool)
        for level in range(1, self._top_level + 1):
            matrix = self._levels[level]
            parents, slots = np.divmod(children, self._arity)
            verdicts &= matrix[parents, slots] == hashes
            if level == self._top_level:
                break
            touched, row = self._touched(level, parents)
            hashes = hash_nodes(matrix[touched], level, touched)[row]
            children = parents
        return verdicts

    def _verify_small(
        self,
        children: list[int],
        hashes: list[int],
        hash_nodes: HashNodes | None,
    ) -> list[bool]:
        arity = self._arity
        verdicts = [True] * len(children)
        for level in range(1, self._top_level + 1):
            matrix = self._levels[level]
            parents = [child // arity for child in children]
            verdicts = [
                ok and matrix.item(parent, child % arity) == value
                for ok, parent, child, value in zip(
                    verdicts, parents, children, hashes
                )
            ]
            if level == self._top_level:
                break
            touched = list(dict.fromkeys(parents))
            hashed = self._hash_small(matrix, touched, level, hash_nodes)
            hashes = [hashed[touched.index(parent)] for parent in parents]
            children = parents
        return verdicts

    def update_leaves(
        self,
        indices: Sequence[int],
        leaves: Sequence[bytes],
        hash_nodes: HashNodes | None = None,
    ) -> None:
        """:meth:`update_leaf` for each (index, leaf) in order, in one walk.

        The end state -- ``offchip``, ``onchip`` and the root -- equals
        the sequential updates': a repeated index keeps its last leaf,
        and every touched ancestor is patched and rehashed once.
        """
        indices, leaves = self._checked(indices, leaves)
        latest = dict(zip(indices, leaves))  # last write wins
        indices, leaves = list(latest), list(latest.values())
        hashes = self._leaf_hashes(indices, leaves, hash_nodes)
        # Distinct children, so each level's (parent, slot) pairs are
        # distinct and one scatter installs them all.
        if self._top_level == 0:
            self._levels[0][indices] = hashes
            return
        if len(indices) <= SMALL_WALK:
            self._update_small(indices, hashes.tolist(), hash_nodes)
            return
        children = np.array(indices, dtype=np.int64)
        hash_nodes = hash_nodes or self._scalar_hashes
        for level in range(1, self._top_level + 1):
            matrix = self._levels[level]
            parents, slots = np.divmod(children, self._arity)
            matrix[parents, slots] = hashes
            if level == self._top_level:
                return
            children, _ = self._touched(level, parents)
            hashes = hash_nodes(matrix[children], level, children)

    def _update_small(
        self,
        children: list[int],
        hashes: list[int],
        hash_nodes: HashNodes | None,
    ) -> None:
        arity = self._arity
        for level in range(1, self._top_level + 1):
            matrix = self._levels[level]
            for child, value in zip(children, hashes):
                matrix[child // arity, child % arity] = value
            if level == self._top_level:
                return
            children = list(dict.fromkeys(child // arity for child in children))
            hashes = self._hash_small(matrix, children, level, hash_nodes)

    def _scalar_hashes(
        self, rows: np.ndarray, level: int, indices: np.ndarray
    ) -> np.ndarray:
        return node_hashes(self._key, rows, level, indices)

    @staticmethod
    def _check_leaf(leaf: bytes) -> None:
        """Leaves are whole metadata blocks: any positive multiple of 8
        bytes (monolithic counters serialize a group to several blocks;
        the keyed hash consumes the full content either way)."""
        if not leaf or len(leaf) % 8:
            raise ValueError("leaves must be a positive multiple of 8 bytes")

    def root_digest(self) -> int:
        """Single 64-bit digest of the trusted on-chip level.

        Folds every on-chip node's hash (or bare leaf hash, in the
        degenerate all-on-chip case) in index order through the keyed
        mixer.  Two trees over identical counter storage produce
        identical digests, so checkpoints and journal records can carry
        "the root" as one integer and recovery can verify a rebuilt tree
        against it.
        """
        top = self._levels[self._top_level]
        if self._top_level:
            top = node_hash_rows(
                self._key, top, self._top_level, np.arange(len(top))
            )
        acc = splitmix64(self._key ^ 0xB0A541)
        for index, value in enumerate(top.tolist()):
            acc = splitmix64(acc ^ value ^ (index << 1))
        return acc & _MASK64

    def path_nodes(self, index: int) -> list[tuple[int, int]]:
        """(level, node_index) pairs a verify of this leaf touches."""
        out: list[tuple[int, int]] = []
        child_index = index
        for level in range(1, self._top_level + 1):
            child_index //= self._arity
            out.append((level, child_index))
        return out


class _NodeView(MutableMapping):
    """Node bytes over a tree's level arrays: the off-chip levels keyed
    by ``(level, index)``, or the on-chip top keyed by ``index``.

    A write replaces one whole node and is checked before it changes
    anything: an unknown key raises ``KeyError``, a value that is not
    one node's bytes ``ValueError``.  Nodes cannot be deleted.
    """

    def __init__(self, tree: BonsaiMerkleTree, offchip: bool) -> None:
        top = tree._top_level
        #: level -> matrix (or the degenerate top's vector) in view
        self._levels = (
            dict(enumerate(tree._levels[1:top], start=1))
            if offchip
            else {top: tree._levels[top]}
        )
        #: the on-chip view's one level; None keys by ``(level, index)``
        self._top = None if offchip else top

    def _locate(self, key: object) -> tuple[np.ndarray, int]:
        if self._top is not None:
            level, index = self._top, key
        elif isinstance(key, tuple) and len(key) == 2:
            level, index = key
        else:
            raise KeyError(key)
        matrix = self._levels.get(level)
        if not (
            matrix is not None
            and isinstance(index, (int, np.integer))
            and 0 <= index < len(matrix)
        ):
            raise KeyError(key)
        return matrix, int(index)

    def __getitem__(self, key: object) -> bytes | int:
        matrix, index = self._locate(key)
        if matrix.ndim == 1:
            return matrix.item(index)
        return matrix[index].tobytes()

    def __setitem__(self, key: object, value: bytes | int) -> None:
        matrix, index = self._locate(key)
        if matrix.ndim == 1:
            matrix[index] = value
            return
        if len(value) != matrix.shape[1] * HASH_BYTES:
            raise ValueError(
                f"a tree node is {matrix.shape[1] * HASH_BYTES} bytes, "
                f"not {len(value)}"
            )
        matrix[index] = np.frombuffer(value, dtype=_WORD)

    def __delitem__(self, key: object) -> None:
        raise TypeError("tree nodes cannot be deleted, only overwritten")

    def __iter__(self) -> Iterator:
        for level, matrix in self._levels.items():
            for index in range(len(matrix)):
                yield index if self._top is not None else (level, index)

    def __len__(self) -> int:
        return sum(map(len, self._levels.values()))


__all__ = [
    "BonsaiMerkleTree",
    "HashNodes",
    "NODE_BYTES",
    "SMALL_WALK",
    "TreeGeometry",
    "node_hash",
    "node_hash_rows",
    "node_hashes",
]
