"""Worker-side count-store caching in :mod:`repro.parallel.shards`.

A block directory path does not name a block: an ``MmapBackend`` names
directories by its own ingest sequence, so a session restored onto the
same root reuses paths for other blocks.  These tests call the worker
entry in-process, so they do not depend on which worker gets which
shard.
"""

import shutil

import pytest

from repro.parallel import shards
from repro.parallel.shards import block_ref, count_shard
from repro.storage.engine import MmapBackend

TARGETS = [(1,), (2,), (1, 2)]


@pytest.fixture(autouse=True)
def empty_cache():
    shards._COUNT_STORES.clear()
    yield
    shards._COUNT_STORES.clear()


def test_refs_sharing_a_path_but_naming_different_blocks(tmp_path):
    block = MmapBackend(root=str(tmp_path)).ingest(1, [(1, 2), (1,), (2, 3)])
    ref = block_ref(block)
    assert count_shard(TARGETS, [ref]) == [2, 2, 1]
    # Block 3 published under the path block 1 was cached by.
    renamed = (ref[0], 3, *ref[2:])
    assert count_shard(TARGETS, [renamed]) == [2, 2, 1]


def test_rewritten_directory_is_not_served_from_the_cache(tmp_path):
    root = str(tmp_path / "blocks")
    first = block_ref(MmapBackend(root=root).ingest(1, [(1, 2), (1,), (2, 3)]))
    assert count_shard(TARGETS, [first]) == [2, 2, 1]
    # A restored session rebuilds the root: block 1 comes back, with
    # other records, under the same directory name.
    shutil.rmtree(root)
    second = block_ref(MmapBackend(root=root).ingest(1, [(1, 2), (1, 2)]))
    assert second[4] == first[4]
    assert count_shard(TARGETS, [second]) == [2, 2, 2]


def test_same_block_is_served_from_the_cache(tmp_path):
    block = MmapBackend(root=str(tmp_path)).ingest(1, [(1, 2), (1,)])
    ref = block_ref(block)
    count_shard(TARGETS, [ref])
    count_shard(TARGETS, [ref])
    assert len(shards._COUNT_STORES) == 1

