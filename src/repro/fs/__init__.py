"""The Sprite distributed file system simulator.

A discrete-event model of the measured cluster: diskless clients with
dynamically sized block caches, a virtual memory system with the
20-minute preference rule, 30-second delayed writes scanned by a
5-second daemon, servers that keep caches and enforce consistency by
timestamps / dirty-data recall / cache disabling, a paging model
(code / initialized-data / backing-file pages), and full RPC + byte
accounting.  Driven by replaying a trace, it produces the kernel-counter
data behind Tables 4-9.
"""

from repro.fs.config import ClusterConfig
from repro.fs.faults import (
    DiskFaultEvent,
    DiskFaultKind,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    SERVER_TARGET,
)
from repro.fs.integrity import (
    IntegrityManager,
    block_checksum,
    block_payload,
    checksum_ok,
)
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.fs.cache import BlockCache, CleanReason
from repro.fs.vm import VirtualMemory
from repro.fs.server import Server
from repro.fs.sharding import Placement
from repro.fs.client import ClientKernel
from repro.fs.paging import PagingModel
from repro.fs.cluster import Cluster, ClusterResult, run_cluster_on_trace
from repro.fs.latency import PagingLatencyAnalysis, analyze_paging_latency
from repro.fs.oracle import InvariantViolation, ProtocolOracle, Violation
from repro.fs.replication import ReplicaMap, ReplicationManager
from repro.fs.rpc import (
    BackoffPolicy,
    Channel,
    DedupCache,
    DedupStatus,
    Delivery,
    Message,
    RpcTransport,
    ServerEndpoint,
)

__all__ = [
    "ClusterConfig",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "SERVER_TARGET",
    "ClientCounters",
    "ServerCounters",
    "CounterSnapshot",
    "BlockCache",
    "CleanReason",
    "VirtualMemory",
    "Server",
    "Placement",
    "ClientKernel",
    "PagingModel",
    "Cluster",
    "ClusterResult",
    "run_cluster_on_trace",
    "PagingLatencyAnalysis",
    "analyze_paging_latency",
    "BackoffPolicy",
    "Channel",
    "DedupCache",
    "DedupStatus",
    "Delivery",
    "Message",
    "RpcTransport",
    "ServerEndpoint",
    "InvariantViolation",
    "ProtocolOracle",
    "Violation",
    "ReplicaMap",
    "ReplicationManager",
    "DiskFaultEvent",
    "DiskFaultKind",
    "IntegrityManager",
    "block_checksum",
    "block_payload",
    "checksum_ok",
]
