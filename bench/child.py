"""One measured process of the benchmark.

Usage: python3 bench/child.py SPEC.json

Times the set-up (import of divset plus one warm-up request that is not
timed as a request), then, unless the spec asks for set-up only, sends the
workload's requests to ``divset.cli.main`` in a closed loop, one after
another, for the spec's number of seconds. Command stdout goes to
os.devnull. With ``trace`` set, every layer is wrapped by ``spans.install``
first and the spans are dumped when the loop ends. A ``speed.SpeedProbe``
runs throughout; every timing is stored raw together with its scale to the
reference host speed. Results go to the spec's ``result`` file.
"""

from __future__ import annotations

import pinning

pinning.pin()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (the speed probe needs it; set-up times divset's own import)
from speed import MIN_SAMPLES, SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _output_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir())
    return path.stat().st_size if path.exists() else 0


def _call(main, argv: list[str]) -> tuple[int, str | None]:
    """Run one command; a traceback is a failed request, not a crash."""
    try:
        return int(main(argv)), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code!r})"
    except Exception:  # the loop must survive a failing request and report it
        return -1, traceback.format_exc()


def run(spec: dict, probe: SpeedProbe) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import divset.cli

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        code, error = _call(divset.cli.main, spec["warmup"])
    setup_s = time.perf_counter() - t0
    for _ in range(MIN_SAMPLES):  # the host's speed right after a set-up too short to sample
        probe.sample()
    if code != 0:
        raise RuntimeError(f"warm-up request {spec['warmup']} exited {code}: {error}")
    src = Path(divset.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise RuntimeError(f"divset imported from {src}, not from this checkout")
    result = {
        "setup_s": setup_s,
        "setup_scale": probe.scale(t0, time.perf_counter()),
        "blas": pinning.blas_threads(),
    }
    if spec["setup_only"]:
        return result

    rec = None
    if spec["trace"]:
        import spans

        rec = spans.install()
        report_bytes = rec.name_id(spans.REPORT_BYTES)
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".json" if spec["out_kind"] == "file" else ""
    requests, starts, latencies, codes, errors, outputs = spec["requests"], [], [], [], {}, []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < spec["seconds"]:
            out = out_dir / f"req-{i:04d}{suffix}"
            argv = [*requests[i % len(requests)], "--out", str(out)]
            if rec is not None:
                rec.request_id = i
            t = time.perf_counter()
            code, error = _call(divset.cli.main, argv)
            latencies.append(time.perf_counter() - t)
            starts.append(t)
            codes.append(code)
            if error is not None:
                errors[i] = error
            outputs.append(str(out))
            if rec is not None:
                rec.mark(report_bytes, _output_bytes(out))
            i += 1
    probe.stop()
    result.update(
        latencies=latencies,
        scales=[probe.scale(t, t + lat) for t, lat in zip(starts, latencies)],
        codes=codes,
        errors=errors,
        outputs=outputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        probe_s=probe.summary(),
    )
    if rec is not None:
        rec.dump(spec["spans"])
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    probe = SpeedProbe()
    probe.start()
    try:
        result = run(spec, probe)
    finally:
        probe.stop()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
