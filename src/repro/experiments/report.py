"""Full-paper report generation.

``write_report`` runs every experiment plus the cross-cutting analyses
(the BSD then-vs-now comparison and the Section 5.3 latency analysis)
and writes a single self-contained text report -- the reproduction's
equivalent of the paper's results sections.
"""

from __future__ import annotations

import os

from repro.analysis.bsd_comparison import (
    build_comparisons,
    render_then_vs_now,
    throughput_vs_compute_gap,
)
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    ExperimentContext,
    run_experiment,
)
from repro.fs.latency import analyze_paging_latency

_HEADER = """\
Reproduction report: Measurements of a Distributed File System
(Baker, Hartman, Kupfer, Shirriff, Ousterhout -- SOSP 1991)

Synthetic substrate at scale {scale} (seed {seed}); see DESIGN.md for
the substitutions and EXPERIMENTS.md for the committed shape bands.
"""


def build_report(context: ExperimentContext, observation=None) -> str:
    """Run everything and return the report text.

    ``observation`` (a :class:`repro.obs.Observation`, typically from
    :func:`~repro.experiments.registry.run_observed_replay`) appends an
    OBSERVABILITY section; when omitted the report text is unchanged.
    """
    sections = [
        _HEADER.format(scale=context.scale, seed=context.seed),
    ]

    results = {
        experiment_id: run_experiment(experiment_id, context)
        for experiment_id in EXPERIMENT_IDS
    }

    sections.append("=" * 72)
    sections.append("SECTION 4 -- THE BSD STUDY REVISITED")
    sections.append("=" * 72)
    for experiment_id in ("table1", "table2", "table3",
                          "figure1", "figure2", "figure3", "figure4"):
        result = results[experiment_id]
        sections.append(result.rendered)
        sections.append(f"Paper: {result.paper_expectation}")
        sections.append("")

    sections.append("=" * 72)
    sections.append("SECTION 5 -- FILE CACHE MEASUREMENTS")
    sections.append("=" * 72)
    for experiment_id in ("table4", "table5", "table6", "table7",
                          "table8", "table9"):
        result = results[experiment_id]
        sections.append(result.rendered)
        sections.append(f"Paper: {result.paper_expectation}")
        sections.append("")

    sections.append(analyze_paging_latency(context.cluster_results()).render())
    sections.append("")

    sections.append("=" * 72)
    sections.append("SECTIONS 5.5-5.6 -- CACHE CONSISTENCY")
    sections.append("=" * 72)
    for experiment_id in ("table10", "table11", "table12"):
        result = results[experiment_id]
        sections.append(result.rendered)
        sections.append(f"Paper: {result.paper_expectation}")
        sections.append("")

    sections.append("=" * 72)
    sections.append("BEYOND THE PAPER -- CRASHES AND THE DELAYED-WRITE RISK")
    sections.append("=" * 72)
    for experiment_id in ("faults", "rpc_loss"):
        result = results[experiment_id]
        sections.append(result.rendered)
        sections.append(f"Paper: {result.paper_expectation}")
        sections.append("")

    sections.append("=" * 72)
    sections.append("THEN VS NOW -- AGAINST THE 1985 BSD STUDY")
    sections.append("=" * 72)
    table2 = results["table2"].metrics
    comparisons = build_comparisons(
        throughput_10min_kbs=table2["avg_user_throughput_10min_kbs"],
        throughput_10s_kbs=table2["avg_user_throughput_10s_kbs"],
        opens_below_quarter_second=results["figure3"].metrics[
            "opens_below_quarter_second"
        ],
        whole_file_read_fraction=results["table3"].metrics[
            "ro_whole_file_share"
        ],
        sequential_bytes_fraction=results["table3"].metrics[
            "sequential_bytes_fraction"
        ],
        read_miss_ratio=results["table6"].metrics["read_miss_ratio"],
    )
    sections.append(render_then_vs_now(comparisons))
    gap = throughput_vs_compute_gap(table2["avg_user_throughput_10min_kbs"])
    sections.append(
        f"\nCompute power grew {gap:.0f}x faster than file throughput."
    )
    if observation is not None:
        sections.append("")
        sections.append("=" * 72)
        sections.append("OBSERVABILITY -- COUNTER TIMESERIES, TRACE, LATENCIES")
        sections.append("=" * 72)
        sections.append(observation.render_summary())
    return "\n".join(sections)


def write_report(
    path: str | os.PathLike[str],
    context: ExperimentContext | None = None,
    observation=None,
) -> str:
    """Build the report and write it to ``path``; returns the text."""
    text = build_report(context or ExperimentContext(), observation=observation)
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def export_figure_data(
    directory: str | os.PathLike[str],
    context: ExperimentContext | None = None,
) -> list[str]:
    """Write the four figures' CDF data as CSV files for replotting.

    Produces ``figure1.csv`` ... ``figure4.csv`` in ``directory`` (one
    long-form file per figure: curve, value, fraction) and returns the
    paths written.
    """
    from repro.analysis import (
        compute_file_sizes,
        compute_lifetimes,
        compute_open_times,
        compute_run_lengths,
        write_cdf_csv,
    )

    context = context or ExperimentContext()
    accesses = context.trace_accesses()
    run_lengths = compute_run_lengths(accesses)
    file_sizes = compute_file_sizes(accesses)
    open_times = compute_open_times(accesses)
    lifetimes = compute_lifetimes(trace.columnar for trace in context.traces())
    figures = {
        "figure1.csv": {
            "by_runs": run_lengths.by_runs,
            "by_bytes": run_lengths.by_bytes,
        },
        "figure2.csv": {
            "by_accesses": file_sizes.by_accesses,
            "by_bytes": file_sizes.by_bytes,
        },
        "figure3.csv": {"by_opens": open_times.by_opens},
        "figure4.csv": {
            "by_files": lifetimes.by_files,
            "by_bytes": lifetimes.by_bytes,
        },
    }
    os.makedirs(os.fspath(directory), exist_ok=True)
    written = []
    for name, curves in figures.items():
        path = os.path.join(os.fspath(directory), name)
        write_cdf_csv(path, curves)
        written.append(path)
    return written
