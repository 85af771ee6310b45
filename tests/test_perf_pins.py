"""The names the perf benchmark (``benchmarks/perf``) pins stay in place.

Its shims patch public functions of every layer by name, and its
reference run builds a ``DetectorConfig`` from named fields, so deleting
or renaming one fails every workload. This notices in well under a second.
"""

from __future__ import annotations

import sys
from pathlib import Path


def test_benchmark_shims_and_reference_config(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
    try:
        import shims
        import workloads

        recorder = shims.Recorder()
        recorder.install()
        patched = list(recorder._originals)
        recorder.uninstall()
        assert patched
        assert all(getattr(owner, name) is original for owner, name, original in patched)
        assert not workloads.REFERENCE_CONFIG.pipelined
    finally:
        for name in ("shims", "workloads"):
            sys.modules.pop(name, None)
