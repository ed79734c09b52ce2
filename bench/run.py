"""HRI benchmark: seeded workloads run against the public API of ``hri``.

Run from the repository root; ``hri`` is imported from ``src``:

    python3 bench/run.py --workload network-assess --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                 # each listed workload once, each in its own process
    python3 bench/run.py --repeat 10     # steadiness: seeds 1..10 per listed workload

One run sets up at least ``SETUP_MIN_REPEATS`` times and for at least
``SETUP_MIN_SECONDS`` (import, input generation, one warm-up operation) and
reports the median as ``setup_s``, then runs
operations for ``--seconds`` and checks every output. With ``--trace 0`` it
prints the end-to-end metrics; ``op_best_ms`` is the mean over the run's
inputs of each input's fastest operation, the latency a workload reaches when
the machine is not slowed by its neighbours, while ``op_p50_ms`` and
``op_p90_ms`` also carry that slowdown. With ``--trace 1`` it alternates traced and
untraced operations and prints the per-layer metrics, computed from spans
recorded around each call into ``hri``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 1 when any check failed and 2 when the run could not start.
Reports and span files go to ``.bench_out/``; inputs live in ``.bench_work/``
for the length of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0  # short set-ups repeat more, so their median spans more machine noise
WORKLOAD_NAMES = ("network-assess", "long-corridor", "rsu-broadcast", "cli-chain")
# The workloads BENCHMARK.json lists, and the ones ``--workload all`` runs; the others run
# by name. rsu-broadcast: the slipping broadcast loop adds up every wake-up stall, so its
# lateness swings too far between runs on a small shared VM to bound. long-corridor: its
# 15-20 operations of 1.5-2 s each are too few and too long for a steady fastest operation.
LISTED = ("network-assess", "cli-chain")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.repeat == 1:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    names = LISTED if args.workload == "all" else (args.workload,)
    return run_many(names, args.seed, args.seconds, args.trace, max(1, args.repeat))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "hri" / "__init__.py").is_file():  # never fall back to an installed hri
        print(f"error: no hri package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import hri from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](ROOT, seed)
    rec = spans.Recorder() if trace else spans.NULL
    try:
        setup_times = []
        setup_start = perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or perf_counter() - setup_start < SETUP_MIN_SECONDS:
            workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)  # the inputs of the previous set-up
            gc.collect()  # every set-up starts from the same heap, not from the last one's garbage
            import_s = _import_seconds(workloads)
            start = perf_counter()
            workload.setup(workdir)
            setup_times.append(import_s + perf_counter() - start)
        run = _measure(workload, rec, seconds, trace)
        extra = workload.finish(rec)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    lat = run["latencies_ms"]
    usage = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
    shown = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_best_ms": (statistics.fmean(run["best_ms"].values()) if run["best_ms"] else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    printed_only = {
        "op_p50_ms": (statistics.median(lat) if lat else 0.0, "ms"),
        "ops_failed_ratio": (run["failed"] / run["attempted"], "ratio"),
    }
    if len(lat) >= 100:  # at least ten samples lie beyond the 90th percentile
        printed_only["op_p90_ms"] = (statistics.quantiles(lat, n=10)[8], "ms")
    if workload.reports_segments and run["busy_s"]:
        printed_only["segments_per_s"] = (run["segments"] / run["busy_s"], "1/s")
    if name == "rsu-broadcast":
        printed_only["rsu.slip_ms_per_cycle"] = (extra["slip_ms_per_cycle"], "ms")
        printed_only["rsu.received_ratio"] = (extra["received_ratio"], "ratio")
    if trace:
        printed_only.update(shown)
        shown = layer_metrics(rec.summary(), run)
        rec.write(ROOT / ".bench_out" / f"{name}-seed{seed}-spans.json")

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": seed,
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
    }
    inputs = workload.input_stats()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs " + " ".join(f"{k}={v}" for k, v in inputs.items()))
    if "build_ivim_error" in extra:
        print(f"note ivim.build_ivim failed outside the timed operation: {extra['build_ivim_error']}")
    print(f"ops attempted={run['attempted']} failed={run['failed']} latency_samples={len(lat)}")
    for metric, (value, unit) in {**shown, **printed_only}.items():
        print(f"metric {metric} {value:.6g} {unit}")
    for error in run["errors"][:10]:
        print(f"check-failed {error}")

    correct = run["failed"] == 0 and run["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in shown.items()},
    }
    report = dict(result, env=env, inputs=inputs, printed={k: v for k, (v, _) in printed_only.items()},
                  extra=extra, errors=run["errors"][:100], latencies_ms=lat)
    out = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def _measure(workload, rec, seconds: float, trace: bool) -> dict:
    """Run steps until ``seconds`` have passed. A traced run gives each
    input to a traced step and then to an untraced one, so the tracing
    overhead is measured on the same inputs."""
    run = {"latencies_ms": [], "best_ms": {}, "attempted": 0, "failed": 0, "segments": 0, "busy_s": 0.0,
           "errors": [], "traced_ms": [], "untraced_ms": []}
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        traced = trace and i % 2 == 0
        out = workload.step(rec if traced else spans.NULL, i // 2 if trace else i)
        run["latencies_ms"] += out.latencies_ms
        if out.latencies_ms and not traced:
            run["best_ms"][out.key] = min(run["best_ms"].get(out.key, float("inf")), *out.latencies_ms)
        run["traced_ms" if traced else "untraced_ms"] += out.latencies_ms
        run["attempted"] += out.attempted
        run["failed"] += out.failed
        run["errors"] += out.errors
        if not out.failed:
            run["segments"] += out.segments
            run["busy_s"] += sum(out.latencies_ms) / 1000.0
        i += 1
    return run


def layer_metrics(summary: dict, run: dict) -> dict:
    """Per-layer metrics from the spans of a traced run; 0 where a workload
    does not call that function."""
    per_call = summary["per_call_ns"]
    counts = summary["counts"]

    def median_of(name: str, scale: float) -> float:
        values = per_call.get(name)
        return statistics.median(values) / scale if values else 0.0

    def count_values(key: str) -> list[float]:
        return [v for by_key in counts.values() for v in by_key.get(key, [])]

    def count_total(name: str, key: str) -> float:
        return sum(counts.get(name, {}).get(key, []))

    ms, us = 1e6, 1e3
    zones = count_values("zones")
    scored = count_total("scoring.score_corridor", "segments")
    scanned = count_total("corridor.apply_overlay", "scanned")
    children = summary["children"]
    emit_ns = sum(
        children.get(f"rsu.run_broadcast>{fn}", [0, 0])[0] for fn in ("ivim.with_management", "ivim.encode")
    )
    encodes = children.get("rsu.run_broadcast>ivim.encode", [0, 0])[1]
    traced, untraced = run["traced_ms"], run["untraced_ms"]
    metrics = {
        "corridor.load_corridor.ms": (median_of("corridor.load_corridor", ms), "ms"),
        "corridor.rows": (statistics.median(count_values("rows")) if count_values("rows") else 0, "count"),
        "corridor.load_overlay.ms": (median_of("corridor.load_overlay", ms), "ms"),
        "corridor.apply_overlay.ms": (median_of("corridor.apply_overlay", ms), "ms"),
        "corridor.apply_overlay.touched_ratio": (
            count_total("corridor.apply_overlay", "touched") / scanned if scanned else 0.0, "ratio"),
        "scoring.score_corridor.ms": (median_of("scoring.score_corridor", ms), "ms"),
        "scoring.score_corridor.us_per_segment": (
            sum(per_call.get("scoring.score_corridor", [])) / us / scored if scored else 0.0, "us"),
        "scoring.dump_score_profile_json.ms": (median_of("scoring.dump_score_profile_json", ms), "ms"),
        "scoring.dump_score_profile_csv.ms": (median_of("scoring.dump_score_profile_csv", ms), "ms"),
        "scoring.load_score_profile_json.ms": (median_of("scoring.load_score_profile_json", ms), "ms"),
        "scoring.profile_json.bytes": (
            statistics.median(count_values("json_bytes")) if count_values("json_bytes") else 0, "bytes"),
        "ivim.build_ivim.ms": (median_of("ivim.build_ivim", ms), "ms"),
        "ivim.build_ivim.failed": (summary["failed"].get("ivim.build_ivim", 0), "count"),
        "ivim.zones.median": (statistics.median(zones) if zones else 0, "count"),
        "ivim.zones.max": (max(zones) if zones else 0, "count"),
        "ivim.to_canonical_text.ms": (median_of("ivim.to_canonical_text", ms), "ms"),
        "ivim.from_canonical_text.ms": (median_of("ivim.from_canonical_text", ms), "ms"),
        "ivim.encode.us": (median_of("ivim.encode", us), "us"),
        "ivim.decode.us": (median_of("ivim.decode", us), "us"),
        "ivim.encode.bytes": (
            statistics.median(count_values("wire_bytes")) if count_values("wire_bytes") else 0, "bytes"),
        "rsu.emit.us": (emit_ns / us / encodes if encodes else 0.0, "us"),
        "rsu.emissions": (count_total("rsu.run_broadcast", "emissions"), "count"),
        "cli.import.ms": (
            median_of("cli.import_start", ms) - median_of("cli.bare_start", ms)
            if "cli.import_start" in per_call else 0.0, "ms"),
        "cli.score.ms": (median_of("cli.score", ms), "ms"),
        "cli.ivim_build.ms": (median_of("cli.ivim_build", ms), "ms"),
        "cli.ivim_encode.ms": (median_of("cli.ivim_encode", ms), "ms"),
        "trace.overhead_ratio": (
            statistics.median(traced) / statistics.median(untraced) if traced and untraced else 1.0, "ratio"),
    }
    for layer, value in summary["layer_self_ms_per_op"].items():
        metrics[f"{layer}.self_ms_per_op"] = (value, "ms")
    return metrics


def _import_seconds(workloads) -> float:
    """``import hri`` in a fresh interpreter, as every CLI run pays it."""
    code = "import time; t = time.perf_counter(); import hri; print(time.perf_counter() - t)"
    proc = workloads.run_python(ROOT, ["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import hri failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Several runs, each in its own process
# ---------------------------------------------------------------------------


def run_many(names, seed: int, seconds: float, trace: int, repeat: int) -> int:
    """Run each workload ``repeat`` times with seeds ``seed..seed+repeat-1``.

    With ``repeat`` > 1 this is the steadiness mode: for every metric it
    prints the median, the quartiles and the spread (q3 - q1) / median,
    next to the bound ``BENCHMARK.json`` gives the metric.
    """
    bounds = _bounds()
    status = 0
    for name in names:
        values: dict[str, list[float]] = defaultdict(list)
        units: dict[str, str] = {}
        for k in range(repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed + k),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 600)
            lines = proc.stdout.strip().splitlines()
            if repeat == 1 or proc.returncode != 0:
                print(f"== {name} seed {seed + k}")
                print("\n".join(lines))
            if proc.returncode != 0:
                status = 1
                print(proc.stderr.strip()[-2000:], file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
                units[metric] = entry["unit"]
        if repeat > 1:
            for metric, vals in values.items():
                if len(vals) < 2:
                    continue
                q1, median, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                spread = (q3 - q1) / median if median else float("nan")
                bound = bounds.get(metric)
                verdict = "" if bound is None else (
                    "steady" if spread < bound / 3 else "within-bound" if spread <= bound else "TOO-WIDE")
                print(f"steadiness {name} {metric} n={len(vals)} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"{units[metric]} spread={spread:.3f} bound={bound} {verdict}")
    return status


def _bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}


if __name__ == "__main__":
    sys.exit(main())
