"""Tests for the event-type registry."""

import pytest

from repro.titan import LogSource
from repro.titan.events import (
    EventRegistry,
    EventType,
    Severity,
    default_registry,
)


class TestDefaultRegistry:
    def test_paper_event_types_present(self):
        reg = default_registry()
        # §II-B's explicit list: MCEs, memory errors, GPU failures, GPU
        # memory errors, Lustre errors, DVS errors, network errors,
        # application aborts, kernel panics.
        for name in ("MCE", "DRAM_CE", "DRAM_UE", "GPU_XID", "GPU_DBE",
                     "GPU_SBE", "LUSTRE_ERR", "DVS_ERR", "NET_LINK_FAIL",
                     "APP_ABORT", "KERNEL_PANIC"):
            assert name in reg

    def test_categories(self):
        reg = default_registry()
        assert {t.name for t in reg.by_category("gpu")} >= {
            "GPU_XID", "GPU_DBE", "GPU_SBE"
        }
        assert all(t.category == "memory" for t in reg.by_category("memory"))

    def test_sources(self):
        reg = default_registry()
        net = {t.name for t in reg.by_source(LogSource.NETWORK)}
        assert "NET_LINK_FAIL" in net
        assert "MCE" not in net

    def test_fatal_types_are_severe(self):
        reg = default_registry()
        for t in reg:
            if t.fatal_to_node:
                assert t.severity in (Severity.CRITICAL, Severity.FATAL)

    def test_rates_positive(self):
        assert all(t.base_rate > 0 for t in default_registry())

    def test_correctable_more_frequent_than_uncorrectable(self):
        reg = default_registry()
        assert reg.get("DRAM_CE").base_rate > reg.get("DRAM_UE").base_rate
        assert reg.get("GPU_SBE").base_rate > reg.get("GPU_DBE").base_rate

    def test_names_sorted(self):
        names = default_registry().names()
        assert names == sorted(names)


class TestRegistryMutation:
    def test_register_new_type(self):
        reg = default_registry()
        n = len(reg)
        new = EventType("COMPOSITE_GPU_FAIL", "gpu", Severity.CRITICAL,
                        LogSource.CONSOLE, "composite", base_rate=1e-5)
        reg.register(new)
        assert len(reg) == n + 1
        assert reg.get("COMPOSITE_GPU_FAIL") is new

    def test_duplicate_rejected(self):
        reg = default_registry()
        with pytest.raises(ValueError):
            reg.register(EventType("MCE", "processor", Severity.ERROR,
                                   LogSource.CONSOLE, "dup", base_rate=1.0))

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            default_registry().get("NOPE")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            EventType("X", "x", Severity.INFO, LogSource.CONSOLE, "",
                      base_rate=-1.0)

    def test_iteration_and_len(self):
        reg = EventRegistry()
        assert len(reg) == 0
        assert list(reg) == []
