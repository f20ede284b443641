"""Test-only oracles: slow, obviously correct twins of the production paths.

* :mod:`.codecs` — pure-Python codecs, one per registered scheme;
* :mod:`.fullscan` — the full-scan FR-FCFS scheduler and a controller
  that answers every scheduling query with it;
* :mod:`.lockstep` — the advance-everything simulation loop.

Nothing under ``src/repro`` may import this package
(``tools/lint_boundaries.py`` enforces it); the tests compare the
production paths against these.
"""
