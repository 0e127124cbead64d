"""Consistent-hash placement shared by index shards and cluster nodes.

This module generalizes the consistent-hash ring that PR 4 introduced
for index term sharding into the archive-wide placement layer of the
cluster subsystem: the same ring that spreads *terms* over index
shards now also spreads *objects* over archiver nodes, with an ordered
walk producing replica sets.  :class:`~repro.index.ArchiveIndex` takes
its term ring from here, and shard assignments are byte-identical to
the pre-extraction layout (pinned by a regression test).

Two properties carry all the placement guarantees:

* an owner is a pure function of the key — every writer, reader and
  rebalancer agrees without coordination; and
* adding or removing a node only inserts or deletes that node's
  virtual points, so the ordered owner walk of any key changes by at
  most the inserted/removed node — replica sets move minimally
  (the ring-diff invariant :mod:`repro.cluster.rebalance` relies on).

Hashing is deliberately *stable* (blake2b, not the salted builtin
``hash``) so placement — and therefore segment layouts, replica sets,
metrics and traces — is reproducible across processes and runs.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from repro.errors import ClusterError


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hash ring mapping string keys to integer owner ids.

    Owners are index shards (:class:`~repro.index.ArchiveIndex`) or
    cluster nodes (:class:`Placement`); the ring does not care.
    Virtual-point labels keep the historical ``shard:{id}:{replica}``
    format so assignments made before the ring moved here are
    byte-identical.

    Parameters
    ----------
    shard_ids:
        The owner identifiers to place on the ring.
    replicas:
        Virtual points per owner; more points → smoother balance.
    """

    def __init__(self, shard_ids: list[int], replicas: int = 64) -> None:
        if not shard_ids:
            raise ValueError("hash ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate ids on the ring: {shard_ids}")
        if replicas < 1:
            raise ValueError(f"replicas must be positive: {replicas}")
        points: list[tuple[int, int]] = []
        for shard_id in shard_ids:
            for replica in range(replicas):
                points.append((stable_hash(f"shard:{shard_id}:{replica}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        self._shard_ids = sorted(shard_ids)
        self._replicas = replicas

    @property
    def shard_ids(self) -> list[int]:
        """All owner ids on the ring, sorted."""
        return list(self._shard_ids)

    @property
    def replicas(self) -> int:
        """Virtual points per owner."""
        return self._replicas

    def shard_for(self, term: str) -> int:
        """The owner of ``term`` (first ring point at or after its hash)."""
        index = bisect_right(self._points, stable_hash(term))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def owners_for(self, key: str, count: int) -> list[int]:
        """The first ``count`` *distinct* owners clockwise from ``key``.

        The walk starts at the first ring point at or after the key's
        hash (so ``owners_for(key, 1)[0] == shard_for(key)``) and
        collects owners in ring order, skipping repeats.  The resulting
        order is deterministic per key, which is what makes "primary
        replica" a stable notion without any coordination.

        Raises
        ------
        ValueError
            If ``count`` exceeds the number of owners on the ring.
        """
        if not 1 <= count <= len(self._shard_ids):
            raise ValueError(
                f"cannot pick {count} distinct owners from "
                f"{len(self._shard_ids)} on the ring"
            )
        start = bisect_right(self._points, stable_hash(key))
        owners: list[int] = []
        seen: set[int] = set()
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner in seen:
                continue
            seen.add(owner)
            owners.append(owner)
            if len(owners) == count:
                break
        return owners


class Placement:
    """Object-id → replica-set placement over the cluster's nodes.

    A thin, immutable policy object: the ring decides *where* an
    object's replicas live; :class:`~repro.cluster.router.ClusterRouter`
    decides *how* to read/write them and
    :class:`~repro.cluster.rebalance.Rebalancer` moves extents when the
    node set changes.

    Parameters
    ----------
    node_ids:
        Identifiers of the nodes currently on the ring.
    replication:
        Replica count ``R`` per object.  When fewer than ``R`` nodes
        exist (a bootstrap cluster), replica sets are truncated to the
        node count rather than rejected.
    vnodes:
        Virtual points per node (ring smoothness).
    """

    def __init__(
        self, node_ids: list[int], *, replication: int = 2, vnodes: int = 64
    ) -> None:
        if replication < 1:
            raise ClusterError(f"replication must be positive: {replication}")
        if not node_ids:
            raise ClusterError("placement needs at least one node")
        self._ring = HashRing(list(node_ids), replicas=vnodes)
        self.replication = replication
        self.vnodes = vnodes

    @property
    def node_ids(self) -> list[int]:
        """All node ids on the ring, sorted."""
        return self._ring.shard_ids

    @property
    def effective_replication(self) -> int:
        """``min(R, node count)`` — the replica-set size actually used."""
        return min(self.replication, len(self._ring.shard_ids))

    def replica_set(self, key) -> list[int]:
        """Ordered distinct replica nodes of ``key`` (primary first).

        ``key`` is stringified, so :class:`~repro.ids.ObjectId` values
        work directly.
        """
        return self._ring.owners_for(str(key), self.effective_replication)

    def primary(self, key) -> int:
        """The first replica of ``key`` — its canonical home node."""
        return self.replica_set(key)[0]

    def with_node(self, node_id: int) -> "Placement":
        """A new placement with ``node_id`` joined to the ring."""
        if node_id in self._ring.shard_ids:
            raise ClusterError(f"node {node_id} is already on the ring")
        return Placement(
            self._ring.shard_ids + [node_id],
            replication=self.replication,
            vnodes=self.vnodes,
        )

    def without_node(self, node_id: int) -> "Placement":
        """A new placement with ``node_id`` removed from the ring."""
        remaining = [n for n in self._ring.shard_ids if n != node_id]
        if len(remaining) == len(self._ring.shard_ids):
            raise ClusterError(f"node {node_id} is not on the ring")
        if not remaining:
            raise ClusterError("cannot remove the last node from the ring")
        return Placement(
            remaining, replication=self.replication, vnodes=self.vnodes
        )
