"""Repo-level pytest configuration.

Makes ``src/`` (the ``repro`` package) and ``tools/`` (the
``crowdlint`` linter) importable when nothing is pip-installed, and
registers a hypothesis profile tolerant of the simulator-heavy tests
(first-call imports and dataset generation can trip the default
``too_slow`` health check on cold caches).
"""

import sys
from pathlib import Path

for _root in ("src", "tools"):
    _path = str(Path(__file__).parent / _root)
    if _path not in sys.path:
        sys.path.insert(0, _path)

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
