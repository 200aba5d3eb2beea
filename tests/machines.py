"""Machine configurations shared by the fixtures and the golden
fixture generators (importable outside pytest)."""

from __future__ import annotations

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.uarch.config import MachineConfig


def make_fast_config() -> MachineConfig:
    """A small machine that keeps unit-test simulations quick."""
    config = MachineConfig()
    config.rob_entries = 64
    config.int_issue_buffer = 24
    config.fp_issue_buffer = 24
    config.hierarchy = HierarchyConfig(
        il1=CacheConfig(name="IL1", size_bytes=4 * 1024, assoc=2,
                        hit_latency=1),
        dl1=CacheConfig(name="DL1", size_bytes=8 * 1024, assoc=2,
                        hit_latency=2),
        l2=CacheConfig(name="L2", size_bytes=64 * 1024, assoc=2,
                       hit_latency=12),
    )
    return config
