"""The batched tree walk: ``update_leaves``/``verify_leaves`` vs per leaf.

One walk over many leaves must leave the same tree as the per-leaf calls
(``offchip``, ``onchip`` and the root, bit for bit) and return each
leaf's own verdict -- with the scalar hash and with the batch hash
kernel, over every tree shape the engine builds: all on-chip, two
levels, the 64 MiB depth, multi-block (monolithic) leaves, and index
sets dense enough that many leaves share ancestors.
"""

from __future__ import annotations

import copy
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.tree import BonsaiMerkleTree, node_hash
from repro.fast.kernels import tree_hash_rows

KEY = 0x7EE_5EED

#: name -> (leaves, leaf bytes); level sizes in the comments
GEOMETRIES = {
    "all_onchip": (40, 64),  # (40,)
    "two_levels": (300, 64),  # (300, 38)
    "depth_64mib": (16384, 64),  # (16384, 2048, 256, 32)
    "monolithic": (4096, 128),  # (4096, 512, 64, 8)
}


@functools.lru_cache(maxsize=None)
def _template(name: str) -> BonsaiMerkleTree:
    leaves, size = GEOMETRIES[name]
    return BonsaiMerkleTree(leaves, KEY, initial_leaf=bytes(size))


def _fresh(name: str) -> BonsaiMerkleTree:
    tree = copy.copy(_template(name))
    tree.offchip = dict(tree.offchip)
    tree.onchip = dict(tree.onchip)
    return tree


def _state(tree: BonsaiMerkleTree):
    return tree.offchip, tree.onchip, tree.root_digest()


HASHES = {
    "scalar": None,
    "numpy": functools.partial(tree_hash_rows, KEY),  # at every row count
}


@st.composite
def _batches(draw, name):
    """(indices, leaves): a dense window (siblings share parents) or a
    sparse spread, with repeats allowed."""
    leaves, size = GEOMETRIES[name]
    width = draw(st.sampled_from([8, 64, leaves]))
    base = draw(st.integers(0, leaves - min(width, leaves)))
    indices = draw(
        st.lists(
            st.integers(base, base + min(width, leaves) - 1),
            min_size=1,
            max_size=40,
        )
    )
    contents = [
        draw(st.binary(min_size=size, max_size=size)) for _ in indices
    ]
    return indices, contents


@pytest.mark.parametrize("hash_name", sorted(HASHES))
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_update_leaves_equals_sequential_updates(name, hash_name, data):
    batched, sequential = _fresh(name), _fresh(name)
    for _ in range(data.draw(st.integers(1, 3))):
        indices, leaves = data.draw(_batches(name))
        batched.update_leaves(indices, leaves, HASHES[hash_name])
        for index, leaf in zip(indices, leaves):
            sequential.update_leaf(index, leaf)
        assert _state(batched) == _state(sequential)


@pytest.mark.parametrize("hash_name", sorted(HASHES))
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_verify_leaves_equals_per_leaf_verdicts(name, hash_name, data):
    tree = _fresh(name)
    written, leaves = data.draw(_batches(name))
    tree.update_leaves(written, leaves)
    corrupted = None
    if tree.offchip and data.draw(st.booleans()):
        corrupted = data.draw(st.sampled_from(sorted(tree.offchip)))
        tamper = data.draw(st.binary(min_size=64, max_size=64))
        if tamper != tree.offchip[corrupted]:
            tree.offchip[corrupted] = tamper
        else:
            corrupted = None
    # Current contents, stale (initial) contents and untouched leaves.
    size = GEOMETRIES[name][1]
    probe, contents = data.draw(_batches(name))
    indices = written + written + probe
    checked = leaves + [bytes(size)] * len(written) + contents
    verdicts = tree.verify_leaves(indices, checked, HASHES[hash_name])
    assert verdicts == [
        tree.verify_leaf(index, leaf) for index, leaf in zip(indices, checked)
    ]
    # Independently: a leaf verifies exactly when it is the installed
    # content and no node on its path was tampered with.
    installed = dict(zip(written, leaves))  # last write wins
    assert verdicts == [
        installed.get(index, bytes(size)) == leaf
        and corrupted not in tree.path_nodes(index)
        for index, leaf in zip(indices, checked)
    ]


def _from_scratch(tree: BonsaiMerkleTree, leaves: list[bytes]):
    """Every node recomputed bottom-up from the final leaf contents."""
    sizes, arity = tree.geometry.level_sizes, tree.geometry.arity
    hashes = [node_hash(KEY, leaf, 0, i) for i, leaf in enumerate(leaves)]
    top = len(sizes) - 1
    if top == 0:
        return {}, dict(enumerate(hashes))
    offchip = {}
    for level in range(1, top + 1):
        nodes = [
            b"".join(
                h.to_bytes(8, "little")
                for h in hashes[j * arity : (j + 1) * arity]
            ).ljust(64, b"\0")
            for j in range(sizes[level])
        ]
        if level == top:
            return offchip, dict(enumerate(nodes))
        offchip.update(((level, j), node) for j, node in enumerate(nodes))
        hashes = [node_hash(KEY, node, level, j) for j, node in enumerate(nodes)]
    raise AssertionError("unreachable")


@pytest.mark.parametrize("name", ["all_onchip", "two_levels", "monolithic"])
def test_update_leaves_matches_a_tree_rebuilt_from_scratch(name):
    tree = _fresh(name)
    count, size = GEOMETRIES[name]
    contents = [bytes(size)] * count
    rng = random.Random(count)
    for _ in range(4):
        indices = [rng.randrange(count) for _ in range(50)]
        leaves = [rng.randbytes(size) for _ in indices]
        tree.update_leaves(indices, leaves, HASHES["numpy"])
        for index, leaf in zip(indices, leaves):
            contents[index] = leaf
        assert (tree.offchip, tree.onchip) == _from_scratch(tree, contents)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_batch_checks_refuse_before_any_change(name):
    tree = _fresh(name)
    count, size = GEOMETRIES[name]
    before = copy.deepcopy(_state(tree))
    for method in (tree.update_leaves, tree.verify_leaves):
        with pytest.raises(IndexError):
            method([0, count], [bytes(size)] * 2)
        with pytest.raises(IndexError):
            method([-1], [bytes(size)])
        with pytest.raises(ValueError):
            method([0, 1], [bytes(size), b"short"])
        with pytest.raises(ValueError):
            method([0, 1], [bytes(size)])
    assert _state(tree) == before
