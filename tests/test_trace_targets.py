"""The traced benchmark run wraps divset functions by name; every name it
wraps must still exist, or ``bench/run.py --trace 1`` fails to install."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # resolve only: install() would replace the functions for the whole session
    missing = [f"{owner}.{attr}" for owner, attr, *_ in spans.TARGETS if not hasattr(spans._resolve(owner), attr)]
    assert missing == []
