"""Shared fixtures.

The expensive inputs (synthetic traces, cluster replays) are built once
per session at a small scale and shared across test modules; tests that
need pristine state build their own tiny inputs instead.
"""

from __future__ import annotations

import pytest

from repro.common.rng import RngStream


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "Rewrite tests/golden/*.json from the current experiment "
            "outputs instead of comparing against them.  Use after an "
            "intentional behaviour change; review the diff."
        ),
    )
from repro.experiments import ExperimentContext
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.workload import STANDARD_PROFILES, generate_trace


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the artifact cache at a per-session temp directory.

    Tests must neither read a developer's warm ``~/.cache/repro`` (a
    stale hit would mask a regression) nor pollute it.
    """
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("artifact-cache"))
    )
    yield
    monkeypatch.undo()


@pytest.fixture()
def rng() -> RngStream:
    return RngStream.root(12345)


@pytest.fixture(scope="session")
def small_trace():
    """One small trace (trace1 profile) shared read-only by many tests."""
    return generate_trace(STANDARD_PROFILES[0], seed=2024, scale=0.05)


@pytest.fixture(scope="session")
def sim_trace():
    """A simulation-heavy trace (trace3 profile), small scale."""
    return generate_trace(STANDARD_PROFILES[2], seed=2026, scale=0.05)


@pytest.fixture(scope="session")
def shared_heavy_trace():
    """The write-sharing-heavy trace (trace8 profile), small scale."""
    return generate_trace(STANDARD_PROFILES[7], seed=2031, scale=0.05)


@pytest.fixture(scope="session")
def cluster_result(small_trace):
    """One cluster replay of the small trace."""
    config = ClusterConfig(client_count=4)
    return run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=9
    )


@pytest.fixture(scope="session")
def experiment_context():
    """A shared context for experiment-level tests (tiny scale)."""
    return ExperimentContext(scale=0.05, seed=1991)
