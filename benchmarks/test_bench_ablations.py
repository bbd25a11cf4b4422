"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation reruns the cluster simulator with one policy changed and
reports how the Section 5 results move:

* write-through vs the 30-second delayed-write policy (the delay is
  what absorbs ~10% of new bytes and batches writebacks);
* a fixed 10%-of-memory cache (the contemporary UNIX allocation the
  paper contrasts with) vs Sprite's dynamic negotiation;
* no VM preference (the cache may steal any unreferenced page
  immediately) vs the 20-minute rule.
"""

from __future__ import annotations

from repro.caching import compute_cache_sizes, compute_effectiveness, machine_days
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.fs.counters import ClientCounters


def _aggregate(result) -> ClientCounters:
    return ClientCounters.aggregate(result.final_counters.values())


def _replay(ctx, config: ClusterConfig):
    trace = ctx.traces()[0]
    return run_cluster_on_trace(trace.columnar, trace.duration, config, seed=13)


def test_bench_ablation_writeback_delay(benchmark, ctx):
    """Write-through forfeits the delayed-write absorption."""
    client_count = ctx.client_count
    base_config = ClusterConfig(client_count=client_count)
    through_config = ClusterConfig(client_count=client_count, write_through=True)

    def run():
        return _replay(ctx, base_config), _replay(ctx, through_config)

    base, through = benchmark.pedantic(run, rounds=1, iterations=1)
    base_counters, through_counters = _aggregate(base), _aggregate(through)
    base_written = base_counters.bytes_written_to_server
    through_written = through_counters.bytes_written_to_server
    print()
    print("Ablation: 30-second delayed write vs write-through")
    print(f"  bytes written to server, delayed : {base_written / 2**20:8.1f} MB")
    print(f"  bytes written to server, through : {through_written / 2**20:8.1f} MB")
    print(f"  absorbed by the delay            : "
          f"{100 * base_counters.dirty_bytes_discarded / max(base_counters.cache_write_bytes, 1):.1f}%")
    # The paper: ~10% of new bytes never reach the server thanks to the
    # delay; write-through must therefore send more.
    assert through_written > base_written
    assert base_counters.dirty_bytes_discarded > 0


def test_bench_ablation_fixed_10pct_cache(benchmark, ctx):
    """The BSD-era fixed 10% cache misses far more than Sprite's
    dynamically negotiated cache."""
    client_count = ctx.client_count
    dynamic_config = ClusterConfig(client_count=client_count)
    fixed_config = ClusterConfig(client_count=client_count, max_cache_fraction=0.10)

    def run():
        return _replay(ctx, dynamic_config), _replay(ctx, fixed_config)

    dynamic, fixed = benchmark.pedantic(run, rounds=1, iterations=1)
    dyn_eff = compute_effectiveness(machine_days([dynamic]))
    fix_eff = compute_effectiveness(machine_days([fixed]))
    dyn_size = compute_cache_sizes(machine_days([dynamic]))
    fix_size = compute_cache_sizes(machine_days([fixed]))
    print()
    print("Ablation: dynamic cache vs fixed 10% of memory")
    print(f"  dynamic: avg cache {dyn_size.size.mean / 2**20:.1f} MB, "
          f"read miss {100 * dyn_eff.read_miss.mean:.1f}%")
    print(f"  fixed  : avg cache {fix_size.size.mean / 2**20:.1f} MB, "
          f"read miss {100 * fix_eff.read_miss.mean:.1f}%")
    assert fix_size.size.mean < dyn_size.size.mean
    assert fix_eff.read_miss.mean >= dyn_eff.read_miss.mean - 0.02


def test_bench_ablation_vm_preference(benchmark, ctx):
    """Without the 20-minute rule the cache raids VM pages instantly,
    growing larger at VM's expense."""
    client_count = ctx.client_count
    preferred = ClusterConfig(client_count=client_count)
    greedy = ClusterConfig(client_count=client_count, vm_preference=0.0)

    def run():
        return _replay(ctx, preferred), _replay(ctx, greedy)

    base, nopref = benchmark.pedantic(run, rounds=1, iterations=1)
    base_size = compute_cache_sizes(machine_days([base]))
    nopref_size = compute_cache_sizes(machine_days([nopref]))
    print()
    print("Ablation: 20-minute VM preference vs immediate stealing")
    print(f"  with preference   : avg cache {base_size.size.mean / 2**20:.2f} MB")
    print(f"  without preference: avg cache {nopref_size.size.mean / 2**20:.2f} MB")
    assert nopref_size.size.mean >= base_size.size.mean


def test_bench_ablation_nonvolatile_cache(benchmark, ctx):
    """Section 6's future direction: with non-volatile client cache
    memory the 30-second safety flush becomes unnecessary -- dirty data
    can sit in the cache indefinitely (here: a full day), flushed only
    by recalls and evictions.  Write traffic to the server collapses."""
    client_count = ctx.client_count
    volatile = ClusterConfig(client_count=client_count)
    nvram = ClusterConfig(client_count=client_count, writeback_delay=86_400.0)

    def run():
        return _replay(ctx, volatile), _replay(ctx, nvram)

    base, nv = benchmark.pedantic(run, rounds=1, iterations=1)
    base_counters, nv_counters = _aggregate(base), _aggregate(nv)
    print()
    print("Ablation: volatile (30-s flush) vs non-volatile cache memory")
    print(f"  server write bytes, volatile    : "
          f"{base_counters.bytes_written_to_server / 2**20:8.1f} MB")
    print(f"  server write bytes, non-volatile: "
          f"{nv_counters.bytes_written_to_server / 2**20:8.1f} MB")
    assert (nv_counters.bytes_written_to_server
            < 0.7 * base_counters.bytes_written_to_server)


def test_bench_ablation_longer_writeback_delay(benchmark, ctx):
    """A 120-second delay absorbs more new bytes than 30 seconds (the
    paper's suggested direction once reads stop dominating), at the
    cost of more data exposed to crashes."""
    client_count = ctx.client_count
    delay30 = ClusterConfig(client_count=client_count)
    delay120 = ClusterConfig(client_count=client_count, writeback_delay=120.0)

    def run():
        return _replay(ctx, delay30), _replay(ctx, delay120)

    base, longer = benchmark.pedantic(run, rounds=1, iterations=1)
    base_counters, longer_counters = _aggregate(base), _aggregate(longer)

    def absorption(counters: ClientCounters) -> float:
        return counters.dirty_bytes_discarded / max(counters.cache_write_bytes, 1)

    print()
    print("Ablation: 30-second vs 120-second writeback delay")
    print(f"  absorbed at 30 s : {100 * absorption(base_counters):.1f}%")
    print(f"  absorbed at 120 s: {100 * absorption(longer_counters):.1f}%")
    assert absorption(longer_counters) >= absorption(base_counters)
