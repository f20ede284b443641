"""Benchmark harness configuration.

Each benchmark target regenerates one table or figure from the paper's
evaluation (see DESIGN.md's experiment index).  pytest-benchmark times
the experiment; the printed rows are the deliverable.  Simulation runs
go through ``repro.campaign`` — content-addressed on the run's
``RunSpec`` plus a fingerprint of the model source, cached on disk
(``.cache/runs``) — so the first cold execution of the harness takes
minutes and subsequent ones take seconds.  Set ``REPRO_JOBS`` to fan
cache misses out over a process pool.
"""

import sys
from pathlib import Path

import pytest

# The speedup gates time the oracles in tests/oracles; make the repo
# root importable however pytest was launched (``python -m pytest``
# adds the working directory, a bare ``pytest`` does not).
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


@pytest.fixture
def show(capsys):
    """Print an experiment result around pytest's output capturing."""

    def _show(result):
        with capsys.disabled():
            print()
            print(result.format())

    return _show
