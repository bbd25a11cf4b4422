"""Hand-wired clients for unit tests that drive one client directly.

:func:`build_rig` builds an engine, one server and
``config.client_count`` clients, and hands every client exactly the
arguments :class:`~repro.fs.cluster.Cluster` hands a client of a
one-server cluster: the server list, one channel stream per server
(forked by the names the cluster uses), the placement, the shared
writeback ticker and the paging shard.  What the cluster adds around
its clients -- VM demand drawn from the client's stream, paging
models, the cacheability fan-out -- is left to the caller, so a test
controls each of them.
"""

from __future__ import annotations

from repro.common.rng import RngStream
from repro.fs.client import ClientKernel
from repro.fs.config import ClusterConfig
from repro.fs.oracle import ProtocolOracle
from repro.fs.server import Server
from repro.fs.sharding import Placement
from repro.fs.vm import VirtualMemory
from repro.sim import Engine, SharedTicker


def build_rig(
    config: ClusterConfig,
    seed: int = 7,
    oracle: ProtocolOracle | None = None,
    base_demand_pages: int = 500,
) -> tuple[Engine, Server, list[ClientKernel]]:
    """Engine + server + clients wired through the RPC transport."""
    assert config.num_servers == 1, "build_rig wires a one-server cluster"
    engine = Engine()
    server = Server(config.server_memory, config.block_size)
    servers = [server]
    placement = Placement(config.num_servers, config.placement_seed)
    ticker = SharedTicker(engine, config.writeback_scan_interval)
    cluster_rng = RngStream.root(seed).fork("cluster")
    clients = []
    for client_id in range(config.client_count):
        vm = VirtualMemory(
            total_pages=config.client_page_count,
            preference_seconds=config.vm_preference,
            base_demand_pages=base_demand_pages,
            cache_floor_pages=config.min_cache_size // config.block_size,
        )
        client = ClientKernel(
            client_id, config, engine, servers, vm,
            channel_rngs=[cluster_rng.fork(f"client-{client_id}").fork("channel")],
            placement=placement,
            ticker=ticker,
            paging_shard=0,
            oracle=oracle,
        )
        server.register_client(client)
        clients.append(client)
    return engine, server, clients
