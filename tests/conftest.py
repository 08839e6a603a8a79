"""Shared fixtures: small store geometries and OO7 workloads for fast tests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.oo7.config import TINY, OO7Config
from repro.storage.heap import ObjectStore, StoreConfig

# Byte-identity oracles used across test directories import by bare module
# name (``import scalar_oracle``, ``import service_oracle``).
for _layer in ("service", "sim"):
    _path = str(Path(__file__).parent / _layer)
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: A store geometry small enough that TINY OO7 spans many partitions and the
#: buffer pool actually evicts: 4 pages of 2 KB per partition, 4-page buffer.
TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


@pytest.fixture
def tiny_store_config() -> StoreConfig:
    return TINY_STORE


@pytest.fixture
def store(tiny_store_config: StoreConfig) -> ObjectStore:
    return ObjectStore(tiny_store_config)


@pytest.fixture
def default_store() -> ObjectStore:
    """A store with the paper's geometry (96 KB partitions, 12-page buffer)."""
    return ObjectStore(StoreConfig())


@pytest.fixture
def tiny_config() -> OO7Config:
    return TINY
