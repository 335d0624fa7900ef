"""pytest-benchmark configuration shared by all benches.

Every bench regenerates one experiment of the harness
(``repro.experiments.harness``) and prints its result table, so running
``pytest benchmarks/ --benchmark-only`` re-produces the paper's numbers
alongside the timing statistics.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
from pathlib import Path

import pytest

BENCH_PROFILES = ("quick", "full")

TRAJECTORY_DIR = Path(__file__).resolve().parent / "trajectories"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="small",
        choices=("small", "full"),
        help="workload scale for the experiment benches (small keeps CI fast)",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    return request.config.getoption("--bench-scale")


@pytest.fixture(scope="session")
def bench_profile() -> str:
    """Workload profile from the ``REPRO_BENCH_PROFILE`` env var.

    ``quick`` (the default) keeps tier-1 and CI runs fast with small
    workloads; ``full`` sizes the gated benches up to realistic pools.
    Example::

        REPRO_BENCH_PROFILE=full pytest benchmarks/bench_gateway.py -s
    """
    profile = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if profile not in BENCH_PROFILES:
        raise pytest.UsageError(
            f"REPRO_BENCH_PROFILE must be one of {BENCH_PROFILES}, got {profile!r}"
        )
    return profile


def _peak_rss_bytes():
    """Peak resident set size of this process, in bytes (``None`` unknown).

    ``ru_maxrss`` is reported in kilobytes on Linux and in bytes on
    macOS; normalise to bytes so trajectory files compare across
    machines.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage <= 0:
        return None
    return usage if sys.platform == "darwin" else usage * 1024


def _current_rss_bytes():
    """Current resident set size via psutil, when available."""
    try:
        import psutil
    except ImportError:
        return None
    try:
        return psutil.Process().memory_info().rss
    except Exception:
        return None


@pytest.fixture(scope="session")
def bench_trajectory(bench_profile):
    """Recorder that persists each gate's outcome across runs.

    ``record("gateway", speedup=12.4, candidates=16)`` appends one
    run record — UTC timestamp, gate name, profile, speedup and any
    extra metrics — to ``benchmarks/trajectories/BENCH_gateway.json``.
    A gate that measures no speedup (``speedup=None``) records no
    ``speedup`` key, only the metrics it does gate.
    The files accumulate a per-machine performance trajectory (they are
    git-ignored), so a gate that starts drifting toward its threshold is
    visible *before* it fails.  Every record also samples the process's
    memory high-water mark (``peak_rss_bytes``, via
    ``resource.getrusage``; ``current_rss_bytes`` additionally when
    psutil is installed), so memory regressions leave the same paper
    trail as timing regressions.
    """

    def record(gate: str, speedup=None, **metrics):
        TRAJECTORY_DIR.mkdir(parents=True, exist_ok=True)
        path = TRAJECTORY_DIR / f"BENCH_{gate}.json"
        runs = []
        if path.exists():
            try:
                runs = json.loads(path.read_text())
            except ValueError:
                runs = []  # corrupt file: restart the trajectory
        if not isinstance(runs, list):
            runs = []
        entry = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "gate": gate,
            "profile": bench_profile,
            "peak_rss_bytes": _peak_rss_bytes(),
            "current_rss_bytes": _current_rss_bytes(),
        }
        if speedup is not None:
            entry["speedup"] = speedup
        entry.update(metrics)
        runs.append(entry)
        path.write_text(json.dumps(runs, indent=2) + "\n")
        return path

    return record
