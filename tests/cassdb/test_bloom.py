"""Unit tests for the SSTable bloom filter."""

import pytest

from repro.cassdb.bloom import BloomFilter


class TestConstruction:
    def test_zero_items_clamped(self):
        bf = BloomFilter(0)
        assert bf.num_bits >= 8

    def test_invalid_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.0)

    def test_sizing_grows_with_items(self):
        assert BloomFilter(10_000).num_bits > BloomFilter(100).num_bits

    def test_sizing_grows_with_precision(self):
        assert (
            BloomFilter(1000, fp_rate=0.001).num_bits
            > BloomFilter(1000, fp_rate=0.1).num_bits
        )


class TestMembership:
    def test_no_false_negatives(self):
        keys = [f"partition-{i}" for i in range(2000)]
        bf = BloomFilter.from_keys(keys)
        assert all(k in bf for k in keys)

    def test_empty_filter_rejects(self):
        bf = BloomFilter(100)
        assert "anything" not in bf

    def test_false_positive_rate_near_target(self):
        keys = [f"k{i}" for i in range(5000)]
        bf = BloomFilter.from_keys(keys, fp_rate=0.01)
        probes = [f"absent{i}" for i in range(20_000)]
        fp = sum(1 for p in probes if p in bf) / len(probes)
        assert fp < 0.05  # target 0.01; generous bound against flake

    def test_len_counts_insertions(self):
        bf = BloomFilter(10)
        bf.add("a")
        bf.add("a")
        assert len(bf) == 2

    def test_from_keys_empty(self):
        bf = BloomFilter.from_keys([])
        assert "x" not in bf
