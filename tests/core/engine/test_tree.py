"""Bonsai Merkle tree: geometry, tamper detection, replay detection."""

import pytest

from repro.core.engine.tree import (
    NODE_BYTES,
    BonsaiMerkleTree,
    TreeGeometry,
    node_hash,
)


class TestGeometry:
    def test_table1_baseline_five_offchip_levels(self):
        """512 MB / 64 B blocks / 8 counters per metadata block -> 1 M
        leaves; with 3 KB on-chip SRAM the paper's 5-level off-chip tree
        falls out."""
        leaves = (512 * 1024 * 1024 // 64) // 8
        geometry = TreeGeometry.for_leaves(leaves, arity=8, onchip_bytes=3072)
        assert geometry.offchip_levels == 5

    def test_delta_counters_four_offchip_levels(self):
        """With 64 counters per metadata block the tree loses one level
        (Section 5.2: 'reduced from 5 to 4 levels')."""
        leaves = (512 * 1024 * 1024 // 64) // 64
        geometry = TreeGeometry.for_leaves(leaves, arity=8, onchip_bytes=3072)
        assert geometry.offchip_levels == 4

    def test_level_sizes_shrink_by_arity(self):
        geometry = TreeGeometry.for_leaves(4096, arity=8, onchip_bytes=3072)
        assert geometry.level_sizes == (4096, 512, 64, 8)
        assert geometry.offchip_node_count == 512 + 64
        assert geometry.offchip_bytes == 576 * 64

    def test_degenerate_fits_onchip(self):
        geometry = TreeGeometry.for_leaves(10, arity=8, onchip_bytes=3072)
        assert geometry.level_sizes == (10,)
        assert geometry.offchip_node_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeGeometry.for_leaves(0)
        with pytest.raises(ValueError):
            TreeGeometry.for_leaves(10, arity=1)


class TestNodeHash:
    def test_position_tweak(self):
        data = b"\x00" * 64
        assert node_hash(1, data, 0, 0) != node_hash(1, data, 0, 1)
        assert node_hash(1, data, 0, 0) != node_hash(1, data, 1, 0)

    def test_keyed(self):
        data = b"\x07" * 64
        assert node_hash(1, data, 0, 0) != node_hash(2, data, 0, 0)

    def test_content_sensitivity(self):
        assert node_hash(1, b"\x00" * 64, 0, 0) != node_hash(
            1, b"\x00" * 63 + b"\x01", 0, 0
        )


@pytest.fixture
def tree():
    # 4096 leaves -> levels (4096, 512, 64, 8): two off-chip interior
    # levels, on-chip top of 8 nodes.
    return BonsaiMerkleTree(num_leaves=4096, key=0xFEED)


def leaf_bytes(i):
    return i.to_bytes(8, "little") * 8


class TestVerifyUpdate:
    def test_initial_leaves_verify(self, tree):
        assert tree.verify_leaf(0, b"\x00" * 64)
        assert tree.verify_leaf(4095, b"\x00" * 64)

    def test_update_then_verify(self, tree):
        tree.update_leaf(100, leaf_bytes(100))
        assert tree.verify_leaf(100, leaf_bytes(100))
        # Old content no longer verifies.
        assert not tree.verify_leaf(100, b"\x00" * 64)
        # Siblings unaffected.
        assert tree.verify_leaf(101, b"\x00" * 64)

    def test_many_updates(self, tree, rng):
        state = {}
        for _ in range(300):
            index = rng.randrange(4096)
            content = leaf_bytes(rng.randrange(1 << 32))
            tree.update_leaf(index, content)
            state[index] = content
        for index, content in state.items():
            assert tree.verify_leaf(index, content)

    def test_wrong_leaf_content_rejected(self, tree):
        tree.update_leaf(7, leaf_bytes(7))
        assert not tree.verify_leaf(7, leaf_bytes(8))

    def test_leaf_swap_rejected(self, tree):
        """Position tweaks defeat relocating one leaf's content to
        another index."""
        tree.update_leaf(10, leaf_bytes(10))
        assert not tree.verify_leaf(11, leaf_bytes(10))

    def test_index_validation(self, tree):
        with pytest.raises(IndexError):
            tree.verify_leaf(4096, b"\x00" * 64)
        with pytest.raises(ValueError):
            tree.verify_leaf(0, b"short")


class TestTamper:
    def test_interior_node_corruption_detected(self, tree):
        tree.update_leaf(0, leaf_bytes(1))
        level, index = 1, 0
        node = tree.offchip[(level, index)]
        tree.offchip[(level, index)] = b"\xFF" * NODE_BYTES
        assert not tree.verify_leaf(0, leaf_bytes(1))
        tree.offchip[(level, index)] = node
        assert tree.verify_leaf(0, leaf_bytes(1))

    def test_replayed_subtree_detected(self, tree):
        """Attacker snapshots leaf + its entire ancestor path, then
        restores them after a newer update: the on-chip top cannot be
        rolled back, so verification fails."""
        tree.update_leaf(50, leaf_bytes(1))
        snapshot = dict(tree.offchip)
        old_leaf = leaf_bytes(1)
        tree.update_leaf(50, leaf_bytes(2))
        # Roll back every off-chip node (maximal replay power).
        tree.offchip.update(snapshot)
        assert not tree.verify_leaf(50, old_leaf)

    def test_onchip_is_the_root_of_trust(self, tree):
        """If the attacker *could* rewrite the on-chip level, replay
        would succeed -- documents why that SRAM must be on-die."""
        tree.update_leaf(50, leaf_bytes(1))
        off_snapshot = dict(tree.offchip)
        on_snapshot = dict(tree.onchip)
        tree.update_leaf(50, leaf_bytes(2))
        tree.offchip.update(off_snapshot)
        tree.onchip.update(on_snapshot)
        assert tree.verify_leaf(50, leaf_bytes(1))  # the attack the SRAM stops

    def test_malformed_node_write_refused_before_any_change(self, tree):
        before = dict(tree.offchip)
        for size in (0, NODE_BYTES - 8, NODE_BYTES + 8):
            with pytest.raises(ValueError):
                tree.offchip[(1, 0)] = b"\x01" * size
        for key in ((0, 0), (3, 0), (1, 512), (1, -1), 5):
            with pytest.raises(KeyError):
                tree.offchip[key] = b"\x01" * NODE_BYTES
        with pytest.raises(KeyError):
            tree.onchip[8] = b"\x01" * NODE_BYTES
        assert dict(tree.offchip) == before
        assert tree.verify_leaf(0, b"\x00" * 64)


class TestDegenerateTree:
    def test_tiny_tree_onchip_only(self):
        tree = BonsaiMerkleTree(num_leaves=4, key=1)
        tree.update_leaf(2, leaf_bytes(9))
        assert tree.verify_leaf(2, leaf_bytes(9))
        assert not tree.verify_leaf(2, leaf_bytes(8))
        assert tree.offchip == {}

    def test_variable_length_leaves(self):
        """Monolithic counter groups serialize to 448 bytes; the tree
        must hash whole metadata blobs."""
        tree = BonsaiMerkleTree(
            num_leaves=64, key=3, initial_leaf=b"\x00" * 448
        )
        blob = bytes(range(256)) + bytes(192)
        tree.update_leaf(10, blob)
        assert tree.verify_leaf(10, blob)
        assert not tree.verify_leaf(10, b"\x00" * 448)

    def test_path_nodes(self):
        tree = BonsaiMerkleTree(num_leaves=4096, key=1)
        assert tree.path_nodes(0) == [(1, 0), (2, 0), (3, 0)]
        assert tree.path_nodes(4095) == [(1, 511), (2, 63), (3, 7)]
