"""Property-style resilience test: random seeded kill/revive and
crash/recover/revive interleavings never lose an acknowledged write.

For each seed, a scripted adversary interleaves node kills, silent
crashes (routed to, refusing writes), process restarts and revivals with
a write workload.  Whatever the interleaving, the contract is:

* every *acknowledged* write survives (readable at ALL once the cluster
  heals — hint replay on revival must cover missed replicas), and
* after healing, ``repair()`` finds nothing to fix — hinted handoff
  already converged every replica.
"""

import random

import pytest

from repro.cassdb import CassDBError, Cluster, Consistency, TableSchema

SCHEMA = TableSchema("t", partition_key=("pk",), clustering_key=("ck",))

N_NODES = 5
RF = 3
STEPS = 120


def _adversary_run(seed):
    rng = random.Random(seed)
    cluster = Cluster(N_NODES, replication_factor=RF)
    cluster.create_table(SCHEMA)
    acked = []
    failed = 0
    seq = 0
    # What the adversary did to each node that it has not undone yet:
    # "killed", "crashed", or "restarted" (a crashed node whose process
    # is back but whose revival — the hint replay — is still to come).
    out: dict[str, str] = {}

    def heal(node_id):
        if out[node_id] == "crashed":
            cluster.recover_node(node_id)
            out[node_id] = "restarted"
        else:
            cluster.revive_node(node_id)
            del out[node_id]

    for _ in range(STEPS):
        roll = rng.random()
        healthy = sorted(set(cluster.nodes) - set(out))
        if roll < 0.10 and healthy:
            victim = rng.choice(healthy)
            cluster.kill_node(victim)
            out[victim] = "killed"
        elif roll < 0.20 and healthy:
            victim = rng.choice(healthy)
            cluster.crash_node(victim)
            out[victim] = "crashed"
        elif roll < 0.40 and out:
            heal(rng.choice(sorted(out)))
        else:
            row = {"pk": f"p{seq % 12}", "ck": seq, "v": seq}
            try:
                cluster.insert("t", row, Consistency.ONE)
            except CassDBError:
                failed += 1
            else:
                acked.append((f"p{seq % 12}", seq))
            seq += 1
    # Heal: every node back up; revival replays buffered hints.
    while out:
        heal(min(out))
    return cluster, acked, failed


@pytest.mark.parametrize("seed", range(8))
def test_no_acked_write_lost_and_repair_is_a_noop(seed):
    cluster, acked, failed = _adversary_run(seed)
    try:
        assert acked, "adversary schedule produced no acked writes"
        by_pk = {}
        for pk, seq in acked:
            by_pk.setdefault(pk, set()).add(seq)
        for pk, seqs in by_pk.items():
            rows = cluster.select_partition(
                "t", (pk,), consistency=Consistency.ALL)
            assert seqs <= {r["ck"] for r in rows}, (pk, seed)
        # Hint replay already converged the replicas: anti-entropy
        # repair must find zero divergent partitions.
        assert cluster.repair("t") == 0
    finally:
        cluster.close()
