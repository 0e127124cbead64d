"""The replicated, sharded multi-archiver object service.

Covers the whole of :mod:`repro.cluster`: ring placement (including
the byte-identity guarantee for the ring the index shards its terms
with), node lifecycle, quorum writes, failover and
hedged reads, the frontend protocol the delivery pipeline speaks, the
deterministic cluster replay, and join/leave/catch-up rebalancing.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    HashRing,
    Placement,
    Rebalancer,
    RouterFuture,
    plan_migrations,
    replay_cluster,
    stable_hash,
)
from repro.cluster.node import NodeStatus
from repro.errors import (
    ClusterError,
    NodeDownError,
    ObjectNotFoundError,
    QuorumWriteError,
    TransientIOError,
)
from repro.ids import IdGenerator
from repro.scenarios import build_object_library
from repro.server import Archiver
from repro.server.loadgen import build_schedule
from repro.trace import EventKind
from tests.fault_workload import make_text_object


@pytest.fixture()
def library():
    """A mixed object library built on a scratch archiver."""
    return build_object_library(Archiver(), visual_count=6, audio_count=2)


def _cluster(count=3, *, replication=2, objs=None, **kwargs):
    nodes = [ClusterNode(i) for i in range(count)]
    router = ClusterRouter(nodes, replication=replication, **kwargs)
    for obj in objs or ():
        router.store(obj)
    return router, nodes


class TestShardingBackCompat:
    """The ring moved to repro.cluster.placement; assignments must not."""

    # Golden assignments captured before the move.  If either the
    # virtual-point label format or the hash changes, terms re-shard
    # and every persisted index placement silently goes stale.
    GOLDEN_4x64 = {
        "alpha": 1, "budget": 3, "carcinoma": 2, "delta": 3,
        "minos": 2, "xray": 0, "voice": 3, "zebra": 3,
    }
    GOLDEN_8x32 = {
        "alpha": 5, "budget": 3, "carcinoma": 7, "delta": 6,
        "minos": 2, "xray": 6, "voice": 7, "zebra": 3,
    }

    def test_shard_assignments_byte_identical(self):
        from repro.cluster.placement import HashRing as PlacementRing

        ring = PlacementRing([0, 1, 2, 3], replicas=64)
        assert {t: ring.shard_for(t) for t in self.GOLDEN_4x64} == (
            self.GOLDEN_4x64
        )
        ring8 = PlacementRing(list(range(8)), replicas=32)
        assert {t: ring8.shard_for(t) for t in self.GOLDEN_8x32} == (
            self.GOLDEN_8x32
        )

    def test_stable_hash_formula_unchanged(self):
        # The exact definition: big-endian u64 of an 8-byte blake2b.
        for key in ("alpha", "shard:3:17", ""):
            digest = hashlib.blake2b(
                key.encode("utf-8"), digest_size=8
            ).digest()
            assert stable_hash(key) == int.from_bytes(digest, "big")
        assert stable_hash("alpha") == 5982700193828047002

    def test_ring_validation(self):
        with pytest.raises(Exception):
            HashRing([])
        with pytest.raises(Exception):
            HashRing([1, 1])
        with pytest.raises(Exception):
            HashRing([1], replicas=0)


class TestPlacement:
    def test_replica_sets_are_distinct_ordered_owners(self):
        placement = Placement([0, 1, 2, 3], replication=3)
        for key in ("a", "b", "obj-17", "zebra"):
            owners = placement.replica_set(key)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            assert placement.primary(key) == owners[0]

    def test_replication_capped_at_node_count(self):
        placement = Placement([0, 1], replication=3)
        assert placement.effective_replication == 2
        assert len(placement.replica_set("k")) == 2

    def test_with_and_without_node(self):
        placement = Placement([0, 1, 2], replication=2)
        grown = placement.with_node(3)
        assert sorted(grown.node_ids) == [0, 1, 2, 3]
        shrunk = grown.without_node(0)
        assert sorted(shrunk.node_ids) == [1, 2, 3]
        with pytest.raises(ClusterError):
            placement.with_node(1)
        with pytest.raises(ClusterError):
            placement.without_node(9)

    def test_membership_change_moves_at_most_the_changed_node(self):
        base = Placement(list(range(4)), replication=2)
        grown = base.with_node(4)
        keys = [f"key-{i}" for i in range(200)]
        for key in keys:
            before, after = base.replica_set(key), grown.replica_set(key)
            assert set(after) <= set(before) | {4}
        shrunk = base.without_node(2)
        for key in keys:
            before, after = base.replica_set(key), shrunk.replica_set(key)
            if 2 not in before:
                assert after == before


class TestClusterNode:
    def test_lifecycle_gates_writes_and_reads(self):
        node = ClusterNode(0)
        obj = make_text_object(IdGenerator("node"), [["alpha"]])
        node.store(obj)
        node.drain()
        assert node.serves_reads
        with pytest.raises(NodeDownError):
            node.store(make_text_object(IdGenerator("other"), [["beta"]]))
        payload, service = node.serve("fetch", obj.object_id)
        assert payload.service_time_s == service
        node.mark_down()
        with pytest.raises(NodeDownError):
            node.serve("fetch", obj.object_id)

    def test_recover_restores_sealed_objects(self):
        node = ClusterNode(3)
        obj = make_text_object(IdGenerator("rec"), [["gamma"]])
        node.store(obj)
        node.mark_down()
        report = node.recover()
        assert node.status is NodeStatus.UP
        assert report.objects_recovered == 1
        assert obj.object_id in node
        node.serve("fetch", obj.object_id)

    def test_unknown_op_rejected(self):
        node = ClusterNode(0)
        with pytest.raises(ClusterError):
            node.serve("store", None)


class TestQuorumWrites:
    def test_store_fans_to_all_replicas(self, library):
        router, nodes = _cluster(3, objs=library)
        for obj in library:
            replicas = router.replica_set(obj.object_id)
            assert len(replicas) == 2
            for node_id in replicas:
                assert obj.object_id in router.node(node_id)
        total = sum(len(node) for node in nodes)
        assert total == 2 * len(library)

    def test_down_replica_degrades_write_to_quorum(self, library):
        router, nodes = _cluster(3, write_quorum=1)
        obj = library[0]
        victim = router.replica_set(obj.object_id)[0]
        router.node(victim).mark_down()
        outcome = router.store(obj)
        assert outcome.missed == [victim]
        assert (obj.object_id, victim) in router.under_replicated
        # The object is readable despite the degraded write.
        fetched, _ = router.fetch_object(obj.object_id)
        assert fetched.object_id == obj.object_id

    def test_quorum_failure_is_typed(self, library):
        router, nodes = _cluster(3)  # default majority quorum: 2 of 2
        obj = library[0]
        for node_id in router.replica_set(obj.object_id):
            router.node(node_id).mark_down()
        with pytest.raises(QuorumWriteError):
            router.store(obj)
        snap = router.metrics.snapshot()
        assert snap.quorum_failures == 1

    def test_write_metrics_and_trace(self, library):
        router, _ = _cluster(3, objs=library)
        snap = router.metrics.snapshot()
        assert snap.writes == len(library)
        assert snap.replica_writes == 2 * len(library)
        assert snap.quorum_latency.count == len(library)
        events = router.metrics.trace.of_kind(EventKind.CLUSTER_WRITE)
        assert len(events) == len(library)
        assert all(e.detail["quorum_met"] for e in events)


class TestFailoverReads:
    def test_reads_balance_across_replicas(self, library):
        router, _ = _cluster(3, objs=library)
        obj = library[0]
        served = set()
        for _ in range(4):
            router.fetch_object(obj.object_id)
        snap = router.metrics.snapshot()
        served = {n for n, c in snap.node_reads.items() if c > 0}
        # Rotation must spread one object's reads over both replicas.
        assert served == set(router.replica_set(obj.object_id))

    def test_down_node_fails_over(self, library):
        router, nodes = _cluster(3, objs=library)
        obj = library[0]
        primary = router.replica_set(obj.object_id)[0]
        router.node(primary).mark_down()
        for _ in range(3):
            fetched, _ = router.fetch_object(obj.object_id)
            assert fetched.object_id == obj.object_id
        snap = router.metrics.snapshot()
        assert snap.failovers >= 1
        assert snap.read_failures == 0
        events = router.metrics.trace.of_kind(EventKind.CLUSTER_FAILOVER)
        assert any(e.detail["from_node"] == primary for e in events)

    def test_observed_outage_traced_once_then_recovery(self, library):
        # A long outage is one "down" status event, not one per
        # failover — and the first serve after recovery traces "up".
        router, nodes = _cluster(3, objs=library)
        obj = library[0]
        primary = router.replica_set(obj.object_id)[0]
        router.node(primary).mark_down()
        for _ in range(4):
            router.fetch_object(obj.object_id)
        trace = router.metrics.trace
        down = [
            e for e in trace.of_kind(EventKind.CLUSTER_NODE_STATUS)
            if e.detail["status"] == "down"
        ]
        assert [e.detail["node"] for e in down] == [primary]
        router.node(primary).recover()
        for _ in range(4):
            router.fetch_object(obj.object_id)
        up = [
            e for e in trace.of_kind(EventKind.CLUSTER_NODE_STATUS)
            if e.detail["status"] == "up"
        ]
        assert [e.detail["node"] for e in up] == [primary]

    def test_all_replicas_down_is_cluster_error(self, library):
        router, nodes = _cluster(3, objs=library)
        obj = library[0]
        for node_id in router.replica_set(obj.object_id):
            router.node(node_id).mark_down()
        with pytest.raises(ClusterError):
            router.fetch_object(obj.object_id)
        assert router.metrics.snapshot().read_failures == 1

    def test_missing_copy_fails_over_not_errors(self, library):
        # Mid-rebalance, a routed replica may not hold the copy yet.
        router, nodes = _cluster(3, write_quorum=1)
        obj = library[0]
        victim = router.replica_set(obj.object_id)[0]
        router.node(victim).mark_down()
        router.store(obj)
        router.node(victim).recover()  # up again, but missing the copy
        fetched, _ = router.fetch_object(obj.object_id)
        assert fetched.object_id == obj.object_id

    def test_unroutable_op_rejected(self, library):
        router, _ = _cluster(2, objs=library)
        with pytest.raises(ClusterError):
            router.request("read_absolute", 0, 16)
        with pytest.raises(ClusterError):
            router.submit("read_scattered", [])


class TestHedgedReads:
    def test_zero_deadline_hedges_every_read(self, library):
        router, _ = _cluster(3, objs=library, hedge_after_s=0.0)
        for obj in library:
            fetched, _ = router.fetch_object(obj.object_id)
            assert fetched.object_id == obj.object_id
        snap = router.metrics.snapshot()
        assert snap.hedges == len(library)
        assert 0 <= snap.hedge_wins <= snap.hedges
        assert snap.hedge_win_rate == snap.hedge_wins / snap.hedges

    def test_generous_deadline_never_hedges(self, library):
        router, _ = _cluster(3, objs=library, hedge_after_s=1e9)
        for obj in library:
            router.fetch_object(obj.object_id)
        assert router.metrics.snapshot().hedges == 0


class TestFrontendProtocol:
    def test_submit_returns_resolved_future(self, library):
        router, _ = _cluster(2, objs=library)
        future = router.submit("fetch", library[0].object_id)
        assert isinstance(future, RouterFuture)
        assert future.done()
        payload, service = future.result(timeout=0.0)
        assert payload.service_time_s == service

    def test_fetch_with_retry_drives_the_cluster(self, library):
        from repro.delivery.pipeline import fetch_with_retry

        router, nodes = _cluster(2, objs=library)
        payload, service = fetch_with_retry(
            router, "fetch_object", library[0].object_id, station="ws-1"
        )
        assert payload.object_id == library[0].object_id

    def test_retry_survives_transient_exhaustion(self, library):
        # All replicas fail transiently once; the router surfaces a
        # retryable TransientIOError and fetch_with_retry's second
        # attempt succeeds against the healed replicas.
        from repro.delivery.pipeline import fetch_with_retry
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        router, nodes = _cluster(2, objs=library)
        obj = library[0]
        for node_id in router.replica_set(obj.object_id):
            router.node(node_id).fault_plan = FaultPlan(
                [FaultSpec(site="cluster.node_crash",
                           kind=FaultKind.TRANSIENT)]
            )
        payload, _ = fetch_with_retry(
            router, "fetch_object", obj.object_id, attempts=2
        )
        assert payload.object_id == obj.object_id
        assert router.metrics.snapshot().read_failures == 1


class TestClusterReplay:
    def _schedule(self, library, stations=4):
        return build_schedule(
            [obj.object_id for obj in library],
            stations=stations, rate_per_station_s=2.0, duration_s=8.0,
            seed=11,
        )

    def test_replay_is_deterministic(self, library):
        schedule = self._schedule(library)
        reports = []
        for _ in range(2):
            router, _ = _cluster(3, objs=library)
            reports.append(
                replay_cluster(router, schedule, cache_bytes=1 << 20)
            )
        assert reports[0].latencies == reports[1].latencies
        assert reports[0].node_reads == reports[1].node_reads

    def test_replay_balances_load(self, library):
        schedule = self._schedule(library)
        router, _ = _cluster(4, objs=library)
        report = replay_cluster(router, schedule)
        assert report.completed == len(schedule)
        assert report.failed_reads == 0
        assert sum(report.node_reads.values()) == len(schedule)
        # Replication 2 over 4 nodes: more than one node must serve.
        assert sum(1 for c in report.node_reads.values() if c > 0) >= 2

    def test_replay_survives_node_crash(self, library):
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        schedule = self._schedule(library)
        router, nodes = _cluster(3, objs=library)
        nodes[0].fault_plan = FaultPlan(
            [FaultSpec(site="cluster.node_crash", kind=FaultKind.CRASH,
                       hit=5)]
        )
        report = replay_cluster(router, schedule)
        assert nodes[0].status is NodeStatus.DOWN
        assert report.failed_reads == 0
        assert report.failovers >= 1
        assert report.node_reads[0] < sum(report.node_reads.values())

    def test_replay_hedges_slow_reads(self, library):
        schedule = self._schedule(library, stations=8)
        router, _ = _cluster(3, objs=library)
        report = replay_cluster(router, schedule, hedge_fraction=0.0,
                                hedge_floor_s=0.0)
        assert report.hedges > 0
        assert 0 <= report.hedge_wins <= report.hedges


class TestRebalance:
    def test_join_moves_only_the_ring_diff(self, library):
        router, nodes = _cluster(3, objs=library)
        before = {
            obj.object_id: router.replica_set(obj.object_id)
            for obj in library
        }
        rebalancer = Rebalancer(router)
        joiner = ClusterNode(7)
        queued = rebalancer.join(joiner)
        after = {
            obj.object_id: router.replica_set(obj.object_id)
            for obj in library
        }
        expected = sum(
            1 for oid in before
            for nid in after[oid] if nid not in before[oid]
        )
        assert queued == expected  # exactly the diff, nothing else
        for oid in before:
            assert set(after[oid]) <= set(before[oid]) | {7}
        report = rebalancer.run()
        assert report.moved == queued
        assert report.remaining == 0
        for obj in library:
            for node_id in router.replica_set(obj.object_id):
                assert obj.object_id in router.node(node_id)

    def test_incremental_run_respects_step_budget(self, library):
        router, _ = _cluster(2, objs=library)
        rebalancer = Rebalancer(router)
        queued = rebalancer.join(ClusterNode(7))
        assert queued > 1
        first = rebalancer.run(max_steps=1)
        assert first.moved + first.skipped + first.failed == 1
        assert first.remaining == queued - 1
        rest = rebalancer.run()
        assert rest.remaining == 0

    def test_leave_drains_then_finishes(self, library):
        router, nodes = _cluster(3, objs=library)
        rebalancer = Rebalancer(router)
        held = set(nodes[1].object_ids())
        rebalancer.leave(1)
        assert nodes[1].status is NodeStatus.DRAINING
        assert 1 not in router.nodes
        report = rebalancer.run()
        assert report.remaining == 0
        rebalancer.finish_leave(1)
        assert nodes[1].status is NodeStatus.DOWN
        # Every object the leaver held is fully replicated elsewhere.
        for oid in held:
            fetched, _ = router.fetch_object(oid)
            assert fetched.object_id == oid
            for node_id in router.replica_set(oid):
                assert oid in router.node(node_id)

    def test_finish_leave_refuses_while_sourced(self, library):
        router, nodes = _cluster(3, objs=library)
        rebalancer = Rebalancer(router)
        queued = rebalancer.leave(1)
        if queued:
            with pytest.raises(ClusterError):
                rebalancer.finish_leave(1)

    def test_crash_detach_and_rejoin(self, library):
        router, nodes = _cluster(3, objs=library)
        rebalancer = Rebalancer(router)
        nodes[2].mark_down()
        rebalancer.crash_detach(2)
        report = rebalancer.run()
        assert report.remaining == 0
        # Full replication restored on the survivors...
        for obj in library:
            for node_id in router.replica_set(obj.object_id):
                assert obj.object_id in router.node(node_id)
        # ...and the node folds back in after recovering.
        nodes[2].recover()
        rebalancer.rejoin(2)
        rebalancer.run()
        assert 2 in router.nodes
        for obj in library:
            for node_id in router.replica_set(obj.object_id):
                assert obj.object_id in router.node(node_id)

    def test_rejoin_requires_recovery(self, library):
        router, nodes = _cluster(3, objs=library)
        rebalancer = Rebalancer(router)
        nodes[2].mark_down()
        rebalancer.crash_detach(2)
        with pytest.raises(ClusterError):
            rebalancer.rejoin(2)

    def test_plan_migrations_prefers_surviving_owners(self):
        old = Placement([0, 1, 2], replication=2)
        new = old.with_node(3)
        key = next(
            k for k in (f"key-{i}" for i in range(500))
            if 3 in new.replica_set(k)
        )
        holdings = {nid: {key} for nid in old.replica_set(key)}
        holdings.update({nid: set() for nid in (0, 1, 2) if nid not in holdings})
        steps = plan_migrations(old, new, holdings)
        assert [s.target for s in steps] == [3]
        assert steps[0].source in old.replica_set(key)

    def test_migrate_metrics_and_trace(self, library):
        router, _ = _cluster(2, objs=library)
        rebalancer = Rebalancer(router)
        rebalancer.join(ClusterNode(9))
        report = rebalancer.run()
        snap = router.metrics.snapshot()
        assert snap.migrations == report.moved
        assert snap.bytes_migrated == report.bytes_moved > 0
        events = router.metrics.trace.of_kind(EventKind.CLUSTER_MIGRATE)
        assert len(events) == report.moved
        assert all(e.detail["target"] == 9 for e in events)


class TestRouterValidation:
    def test_bad_configurations_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRouter([])
        with pytest.raises(ClusterError):
            ClusterRouter([ClusterNode(0), ClusterNode(0)])
        with pytest.raises(ClusterError):
            ClusterRouter([ClusterNode(0), ClusterNode(1)], write_quorum=3)
        router, _ = _cluster(2)
        with pytest.raises(ClusterError):
            router.node(99)
        with pytest.raises(ClusterError):
            router.remove_node(99)

    def test_cannot_remove_last_node(self):
        router, _ = _cluster(1)
        with pytest.raises(ClusterError):
            router.remove_node(0)

    def test_error_hierarchy(self):
        from repro.errors import ArchiverError, MinosError

        for err in (ClusterError, NodeDownError, QuorumWriteError):
            assert issubclass(err, ArchiverError)
            assert issubclass(err, MinosError)
        assert not issubclass(TransientIOError, ClusterError)
        assert issubclass(ObjectNotFoundError, ArchiverError)
