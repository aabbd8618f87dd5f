"""The traced benchmark run wraps divset functions by name; every name it
wraps must still exist, or ``bench/run.py --trace 1`` fails to install, and
every import kept only for a trace target must still be one it wraps."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
KEPT = re.compile(r"#.* kept for the trace target (\S+) in bench/spans\.py$")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = load_spans()
    # resolve only: install() would replace the functions for the whole session
    missing = [f"{owner}.{attr}" for owner, attr, *_ in spans.TARGETS if not hasattr(spans._resolve(owner), attr)]
    assert missing == []


def test_every_import_kept_for_a_trace_target_is_wrapped():
    wrapped = {f"{owner}.{attr}" for owner, attr, *_ in load_spans().TARGETS}
    kept = []
    for source in sorted((ROOT / "src" / "divset").glob("*.py")):
        lines = source.read_text(encoding="utf-8").splitlines()
        for comment, statement in zip(lines, lines[1:]):
            match = KEPT.match(comment)
            if match:
                target = match.group(1)
                owner, attr = target.rsplit(".", 1)
                # the comment names the import on the next line, in its own module
                assert owner == f"divset.{source.stem}", comment
                assert re.fullmatch(rf"from \.\w+ import {attr}  # noqa: F401", statement), statement
                kept.append(target)
    assert [target for target in kept if target not in wrapped] == []
