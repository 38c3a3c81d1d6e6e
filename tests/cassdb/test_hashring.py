"""Unit tests for the consistent-hash ring."""

import pytest

from repro.cassdb.hashring import HashRing, token_for_key


class TestTokenForKey:
    def test_deterministic(self):
        assert token_for_key("hour:MCE") == token_for_key("hour:MCE")

    def test_str_and_bytes_agree(self):
        assert token_for_key("abc") == token_for_key(b"abc")

    def test_64_bit_range(self):
        for key in ("a", "b", "0:MCE", "999:Lustre"):
            tok = token_for_key(key)
            assert 0 <= tok < 1 << 64

    def test_distinct_keys_distinct_tokens(self):
        keys = [f"{h}:{t}" for h in range(200) for t in ("MCE", "GPU_XID")]
        assert len({token_for_key(k) for k in keys}) == len(keys)


class TestMembership:
    def test_initial_nodes(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.nodes == {"a", "b", "c"}
        assert len(ring) == 3
        assert "a" in ring
        assert "z" not in ring

    def test_add_duplicate_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(ValueError):
            HashRing(replication_factor=0)


class TestPlacement:
    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(RuntimeError):
            ring.primary("key")

    def test_replicas_distinct_physical_nodes(self):
        ring = HashRing([f"n{i}" for i in range(8)], replication_factor=3)
        for key in map(str, range(200)):
            reps = ring.replicas(key)
            assert len(reps) == 3
            assert len(set(reps)) == 3

    def test_replicas_capped_at_node_count(self):
        ring = HashRing(["a", "b"], replication_factor=2)
        assert len(ring.replicas("k", n=5)) == 2

    def test_primary_is_first_replica(self):
        ring = HashRing([f"n{i}" for i in range(4)], replication_factor=3)
        for key in map(str, range(50)):
            assert ring.primary(key) == ring.replicas(key)[0]

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.primary(str(i)) == "only" for i in range(20))

    def test_minimal_remapping_on_join(self):
        """Consistent hashing: adding a node moves ~1/(n+1) of keys."""
        keys = [f"{h}:{t}" for h in range(500) for t in ("MCE", "SBE")]
        ring = HashRing([f"n{i}" for i in range(4)], vnodes=64)
        before = {k: ring.primary(k) for k in keys}
        ring.add_node("n4")
        moved = sum(1 for k in keys if ring.primary(k) != before[k])
        frac = moved / len(keys)
        # Expected 1/5 = 0.20; allow generous tolerance for vnode noise.
        assert 0.10 < frac < 0.35
        # Every moved key must have moved TO the new node.
        for k in keys:
            if ring.primary(k) != before[k]:
                assert ring.primary(k) == "n4"


class TestBalance:
    def test_ownership_roughly_uniform(self):
        ring = HashRing([f"n{i}" for i in range(4)], vnodes=128)
        keys = [f"{h}:{t}" for h in range(1000)
                for t in ("MCE", "SBE", "GPU_XID")]
        counts = ring.ownership(keys)
        expected = len(keys) / 4
        for node, count in counts.items():
            assert 0.5 * expected < count < 1.5 * expected, (node, count)

    def test_more_vnodes_less_skew(self):
        keys = [str(i) for i in range(5000)]

        def skew(vnodes):
            ring = HashRing([f"n{i}" for i in range(8)], vnodes=vnodes)
            counts = ring.ownership(keys)
            mean = len(keys) / 8
            return max(abs(c - mean) for c in counts.values()) / mean

        assert skew(256) < skew(1)
