"""divset benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, starts fresh child
processes that import divset from ``src/`` of this checkout and send the
workload's requests in a closed loop (one client; each request starts when
the previous one returned), checks every output against the numpy oracles
in ``oracle.py``, and prints the metrics. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a second, traced run. ``--workload all`` runs every
workload one after another, each in its own children, and prints a table.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import pinning

pinning.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Set-up is timed in this many extra fresh processes besides the measured one.
EXTRA_SETUPS = 4
# Seconds a child may overrun its measuring time (set-up plus the last request).
CHILD_GRACE_S = 120


def declared_metrics() -> tuple[dict[str, str], list[str], list[str]]:
    """Units of every metric, and the end-to-end and per-layer names, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pinned": {var: os.environ[var] for var in pinning.PIN_VARS},
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
    }


def run_child(spec: dict, path: Path, seconds: float) -> dict:
    path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(path)],
        stdout=subprocess.DEVNULL,
        env=env,
        check=True,
        timeout=seconds + CHILD_GRACE_S,
    )
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def percentiles(samples: list[float]) -> dict:
    """Median with its sample count, plus the highest tail percentile that
    has at least ten samples beyond it."""
    out = {"p50": statistics.median(samples), "n": len(samples)}
    for tail, name in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if len(samples) * (1.0 - tail) >= 10:
            out[name] = statistics.quantiles(samples, n=1000, method="inclusive")[round(tail * 1000) - 1]
            break
    return out


def measured_run(workload, work: Path, label: str, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One closed-loop child; returns its result and a failure reason (or
    None) per request, from the exit code and the oracle check."""
    spec = {
        "setup_only": False,
        "warmup": workload.warmup,
        "requests": workload.requests,
        "out_kind": workload.out_kind,
        "out_dir": str(work / f"out-{label}"),
        "seconds": seconds,
        "trace": trace,
        "result": str(work / f"result-{label}.json"),
        "spans": str(work / f"spans-{label}.npz"),
    }
    result = run_child(spec, work / f"spec-{label}.json", seconds)
    reasons = []
    for i, (code, out) in enumerate(zip(result["codes"], result["outputs"])):
        argv = workload.requests[i % len(workload.requests)]
        if code != 0:
            reasons.append(f"exit {code}: {result['errors'].get(str(i), '').strip()[-300:]}")
        else:
            reasons.append(oracle.check(argv, out))
    return result, reasons


def scaled(result: dict) -> list[float]:
    """Request times of a child at the reference host speed (see speed.py)."""
    return [t * k for t, k in zip(result["latencies"], result["scales"])]


def _same_output(a: Path, b: Path) -> bool:
    if a.is_dir():
        names = sorted(p.name for p in a.iterdir())
        return names == sorted(p.name for p in b.iterdir()) and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in names
        )
    return a.read_bytes() == b.read_bytes()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = inputs.generate(name, seed, work / "inputs")
        untraced, reasons = measured_run(workload, work, "untraced", seconds, False)
        latencies = scaled(untraced)
        detail = {
            "workload": name,
            "sizes": workload.sizes,
            "work_unit": workload.work_unit,
            "blas_threads": untraced["blas"],
            "probe_s": untraced["probe_s"],
            "request_s": percentiles(latencies),
            "request_s_at_reference_speed": latencies,
            "request_s_wall": untraced["latencies"],
        }
        if trace:
            traced, traced_reasons = measured_run(workload, work, "traced", seconds, True)
            # The traced run must write exactly what the untraced run wrote.
            for i, (a, b) in enumerate(zip(untraced["outputs"], traced["outputs"])):
                if traced_reasons[i] is None and not _same_output(Path(a), Path(b)):
                    traced_reasons[i] = "traced output differs from untraced output"
            reasons += traced_reasons
            detail["traced_request_s"] = percentiles(scaled(traced))
            metrics = spans.layer_metrics(work / "spans-traced.npz", traced["scales"])
            overhead = detail["traced_request_s"]["p50"] / detail["request_s"]["p50"] - 1.0
            metrics["trace.overhead_pct"] = 100.0 * overhead
        else:
            setup = [untraced]
            setup_spec = {"setup_only": True, "warmup": workload.warmup}
            for j in range(EXTRA_SETUPS):
                setup_spec["result"] = str(work / f"result-setup{j}.json")
                setup.append(run_child(setup_spec, work / f"spec-setup{j}.json", 0))
            detail["setup_s_wall"] = [r["setup_s"] for r in setup]
            detail["setup_s_at_reference_speed"] = [r["setup_s"] * r["setup_scale"] for r in setup]
            metrics = {
                "setup_s": statistics.median(detail["setup_s_at_reference_speed"]),
                "peak_rss_mb": untraced["peak_rss_mb"],
                "request_s_p50": detail["request_s"]["p50"],
                "work_per_s": workload.work_per_request * len(latencies) / sum(latencies),
            }
        failures = {i: r for i, r in enumerate(reasons) if r is not None}
        detail.update(
            attempted=len(reasons),
            failed=len(failures),
            fail_ratio=len(failures) / len(reasons),
            failures={str(i): r for i, r in list(failures.items())[:5]},
            metrics=metrics,
        )
        (work / "detail.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
        return detail
    finally:
        # Keep the small records (detail, results, spans); drop inputs and outputs.
        for sub in work.iterdir() if work.exists() else ():
            if sub.is_dir():
                shutil.rmtree(sub, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divset" / "__init__.py").is_file():
        print(f"error: no divset sources under {ROOT / 'src'}; run from a divset checkout", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    units, end_to_end, per_layer = declared_metrics()
    info = provenance(args.seed)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    declared = per_layer if args.trace else end_to_end
    for res in results:
        if sorted(res["metrics"]) != sorted(declared):
            raise RuntimeError(f"{res['workload']} metrics {sorted(res['metrics'])} != BENCHMARK.json {declared}")
    for res in results:
        print(f"== {res['workload']}  seed {args.seed}  trace {args.trace}  sizes {json.dumps(res['sizes'])}")
        print(f"   {'fail_ratio':40s} {res['fail_ratio']:.4g} ({res['failed']}/{res['attempted']} requests)")
        for metric, value in res["metrics"].items():
            print(f"   {metric:40s} {value:.6g} {units[metric]}")
        req = res["request_s"]
        extra = "".join(f", {k} {v:.4g} s" for k, v in req.items() if k not in ("p50", "n"))
        print(f"   request latency: p50 {req['p50']:.4g} s over n={req['n']} requests{extra}")
        for i, reason in res["failures"].items():
            print(f"   FAILED request {i}: {reason}")
    print("detail " + json.dumps({"provenance": info, "workloads": results}))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split(".", 1)[1] if len(results) > 1 else m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
