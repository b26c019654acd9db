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

Updates and verifies run one level-by-level walk over any number of
leaves (:meth:`BonsaiMerkleTree.update_leaves` /
:meth:`~BonsaiMerkleTree.verify_leaves`): each level's touched nodes are
grouped by parent, so an ancestor shared by many leaves is loaded,
patched or compared, and hashed once -- in one ``hash_nodes`` call per
level, which a batch kernel can serve.  The per-leaf
``update_leaf``/``verify_leaf`` are its one-leaf case.

Off-chip node storage is exposed as a plain dict so tests and the fault
harness can corrupt arbitrary nodes and verify detection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.crypto.prf import splitmix64

NODE_BYTES = 64
HASH_BYTES = 8
_MASK64 = (1 << 64) - 1

#: ``hash_nodes(datas, level, indices)``: one level's node hashes
HashNodes = Callable[[Sequence[bytes], int, Sequence[int]], list[int]]


def node_hash(key: int, data: bytes, level: int, index: int) -> int:
    """Keyed, position-tweaked 64-bit hash of a 64-byte node/leaf."""
    acc = splitmix64(key ^ (level << 48) ^ index)
    for offset in range(0, len(data), 8):
        word = int.from_bytes(data[offset : offset + 8], "little")
        acc = splitmix64(acc ^ word)
    return acc & _MASK64


def node_hashes(
    key: int, datas: Sequence[bytes], level: int, indices: Sequence[int]
) -> list[int]:
    """:func:`node_hash` of each (node, index) at one level: the scalar
    ``hash_nodes`` of the tree walk."""
    return [node_hash(key, data, level, i) for data, i in zip(datas, indices)]


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
    def interior_levels(self) -> int:
        """Number of hash levels above the leaves (including on-chip top)."""
        return len(self.level_sizes) - 1

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
        self._scalar_hashes: HashNodes = functools.partial(node_hashes, key)
        #: off-chip node storage: (level, index) -> 64-byte node.  Level 1
        #: is the first interior level (level 0 is the leaves, which the
        #: engine stores itself).  Tests may corrupt entries directly.
        self.offchip: dict[tuple[int, int], bytes] = {}
        #: trusted on-chip top level: index -> 64-byte node (or a bare
        #: 64-bit leaf hash in the degenerate all-on-chip case).
        self.onchip: dict[int, Any] = {}
        self._build(initial_leaf)

    # -- construction -------------------------------------------------------
    #
    # Storage model: interior levels 1..top-1 live in self.offchip (DRAM,
    # corruptible); the top level's node *contents* live in self.onchip
    # (the 3 KB trusted SRAM of Table 1).  In the degenerate case where the
    # leaves themselves fit on-chip (tiny test trees), self.onchip maps
    # leaf index -> leaf hash instead.

    def _build(self, initial_leaf: bytes) -> None:
        sizes = self.geometry.level_sizes
        self._check_leaf(initial_leaf)
        self._top_level = len(sizes) - 1
        hashes = [
            node_hash(self._key, initial_leaf, 0, i)
            for i in range(sizes[0])
        ]
        if self._top_level == 0:
            self.onchip = dict(enumerate(hashes))
            return
        for level in range(1, len(sizes)):
            next_hashes: list[int] = []
            for j in range(sizes[level]):
                node = self._pack_node(hashes, j)
                if level == self._top_level:
                    self.onchip[j] = node
                else:
                    self.offchip[(level, j)] = node
                    next_hashes.append(node_hash(self._key, node, level, j))
            hashes = next_hashes

    def _pack_node(self, child_hashes: list[int], index: int) -> bytes:
        chunk = child_hashes[index * self._arity : (index + 1) * self._arity]
        data = bytearray()
        for value in chunk:
            data.extend(value.to_bytes(HASH_BYTES, "little"))
        data.extend(b"\x00" * (NODE_BYTES - len(data)))
        return bytes(data)

    @property
    def key(self) -> int:
        """The hash key (a batch ``hash_nodes`` kernel binds it)."""
        return self._key

    # -- the leaf-to-root walk (``hash_nodes`` defaults to the scalar loop) --

    def _node(self, level: int, index: int) -> bytes:
        if level == self._top_level:
            return self.onchip[index]  # trusted SRAM
        return self.offchip[(level, index)]

    def _slot(self, child: int) -> int:
        """Byte offset of a child's hash within its parent node."""
        return (child % self._arity) * HASH_BYTES

    def _slot_hash(self, node: bytes, child: int) -> int:
        slot = self._slot(child)
        return int.from_bytes(node[slot : slot + HASH_BYTES], "little")

    def _checked(
        self, indices: Sequence[int], leaves: Sequence[bytes]
    ) -> tuple[list[int], list[bytes]]:
        indices, leaves = list(indices), list(leaves)
        if len(indices) != len(leaves):
            raise ValueError("one leaf per index")
        for index, leaf in zip(indices, leaves):
            if not 0 <= index < self.geometry.num_leaves:
                raise IndexError("leaf index out of range")
            self._check_leaf(leaf)
        return indices, leaves

    def verify_leaf(self, index: int, leaf: bytes) -> bool:
        """Walk leaf -> root, recomputing hashes from off-chip nodes.

        Returns False on any mismatch: a corrupted leaf, a corrupted
        interior node, or a consistent-but-stale (replayed) subtree.
        """
        return self.verify_leaves([index], [leaf])[0]

    def update_leaf(self, index: int, leaf: bytes) -> None:
        """Install new leaf content and rehash its path to the root."""
        self.update_leaves([index], [leaf])

    def verify_leaves(
        self,
        indices: Sequence[int],
        leaves: Sequence[bytes],
        hash_nodes: HashNodes | None = None,
    ) -> list[bool]:
        """:meth:`verify_leaf` for each (index, leaf), in one walk.

        A verdict is the AND of the comparisons along that leaf's path;
        every touched ancestor is read and hashed once.
        """
        indices, leaves = self._checked(indices, leaves)
        hash_nodes = hash_nodes or self._scalar_hashes
        hashes = hash_nodes(leaves, 0, indices)
        if self._top_level == 0:
            # Degenerate: leaf hashes are held on-chip directly.
            return [self.onchip[i] == h for i, h in zip(indices, hashes)]
        verdicts = [True] * len(indices)
        path = indices  # each entry's node at the level below
        for level in range(1, self._top_level + 1):
            parents = [child // self._arity for child in path]
            nodes = {p: self._node(level, p) for p in dict.fromkeys(parents)}
            verdicts = [
                ok and self._slot_hash(nodes[parent], child) == value
                for ok, parent, child, value in zip(
                    verdicts, parents, path, hashes
                )
            ]
            if level == self._top_level:
                return verdicts
            touched = list(nodes)
            hashed = dict(
                zip(touched, hash_nodes(list(nodes.values()), level, touched))
            )
            hashes = [hashed[parent] for parent in parents]
            path = parents
        raise AssertionError("unreachable")

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
        hash_nodes = hash_nodes or self._scalar_hashes
        latest = dict(zip(indices, leaves))  # last write wins
        touched = list(latest)
        hashes = hash_nodes(list(latest.values()), 0, touched)
        if self._top_level == 0:
            self.onchip.update(zip(touched, hashes))
            return
        for level in range(1, self._top_level + 1):
            nodes: dict[int, bytearray] = {}
            for child, value in zip(touched, hashes):
                parent = child // self._arity
                node = nodes.get(parent)
                if node is None:
                    node = nodes[parent] = bytearray(self._node(level, parent))
                slot = self._slot(child)
                node[slot : slot + HASH_BYTES] = value.to_bytes(
                    HASH_BYTES, "little"
                )
            touched = list(nodes)
            datas = [bytes(node) for node in nodes.values()]
            if level == self._top_level:
                self.onchip.update(zip(touched, datas))
                return
            self.offchip.update(
                ((level, index), data) for index, data in zip(touched, datas)
            )
            hashes = hash_nodes(datas, level, touched)

    @staticmethod
    def _check_leaf(leaf: bytes) -> None:
        """Leaves are whole metadata blocks: any positive multiple of 8
        bytes (monolithic counters serialize a group to several blocks;
        the keyed hash consumes the full content either way)."""
        if not leaf or len(leaf) % 8:
            raise ValueError("leaves must be a positive multiple of 8 bytes")

    def root_digest(self) -> int:
        """Single 64-bit digest of the trusted on-chip level.

        Folds every on-chip node (or bare leaf hash, in the degenerate
        all-on-chip case) in index order through the keyed mixer.  Two
        trees over identical counter storage produce identical digests,
        so checkpoints and journal records can carry "the root" as one
        integer and recovery can verify a rebuilt tree against it.
        """
        acc = splitmix64(self._key ^ 0xB0A541)
        for index in sorted(self.onchip):
            node = self.onchip[index]
            if isinstance(node, bytes):
                value = node_hash(self._key, node, self._top_level, index)
            else:
                value = node  # degenerate case: bare 64-bit leaf hash
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


__all__ = [
    "BonsaiMerkleTree",
    "HashNodes",
    "NODE_BYTES",
    "TreeGeometry",
    "node_hash",
    "node_hashes",
]
