"""Executable Memcached substrate: stores, slabs, ring, protocol.

A faithful in-process reimplementation of the cache layer the paper's
testbed ran: consistent hashing (:class:`HashRing`), slab-class memory
management (:class:`SlabAllocator`), per-class LRU eviction, item
expiry, the ASCII protocol subset, and a cluster client
(:class:`MemcachedCluster`) whose measured miss ratios and load shares
feed the analytic model.
"""

from .adapter import SimulatedCacheBackend
from .cluster import MemcachedCluster
from .hashring import HashRing, ModuloRouter, stable_hash
from .hitrate import (
    capacity_for_miss_ratio,
    che_characteristic_time,
    items_per_capacity_bytes,
    lru_hit_ratio,
    lru_miss_ratio,
    miss_ratio_curve,
)
from .lru import LRUList
from .protocol import (
    ArithCommand,
    Command,
    DeleteCommand,
    FlushCommand,
    GetCommand,
    SetCommand,
    StatsCommand,
    StoreVariantCommand,
    TouchCommand,
    VersionCommand,
    parse_command,
    render_get_response,
    render_stats,
)
from .server import MemcachedServer
from .slab import (
    DEFAULT_GROWTH_FACTOR,
    DEFAULT_MIN_CHUNK,
    DEFAULT_PAGE_SIZE,
    SlabAllocator,
    SlabClassStats,
    build_chunk_sizes,
)
from .store import ITEM_OVERHEAD, CacheStore, Item, StoreStats

__all__ = [
    "ArithCommand",
    "Command",
    "StoreVariantCommand",
    "TouchCommand",
    "CacheStore",
    "DEFAULT_GROWTH_FACTOR",
    "DEFAULT_MIN_CHUNK",
    "DEFAULT_PAGE_SIZE",
    "DeleteCommand",
    "FlushCommand",
    "GetCommand",
    "HashRing",
    "ITEM_OVERHEAD",
    "Item",
    "LRUList",
    "MemcachedCluster",
    "MemcachedServer",
    "ModuloRouter",
    "SetCommand",
    "SimulatedCacheBackend",
    "SlabAllocator",
    "SlabClassStats",
    "StatsCommand",
    "StoreStats",
    "VersionCommand",
    "build_chunk_sizes",
    "capacity_for_miss_ratio",
    "che_characteristic_time",
    "items_per_capacity_bytes",
    "lru_hit_ratio",
    "lru_miss_ratio",
    "miss_ratio_curve",
    "parse_command",
    "render_get_response",
    "render_stats",
    "stable_hash",
]
