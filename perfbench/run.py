#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: figures, campaigns and serving.

    python3 perfbench/run.py --workload figures-cold --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 7          # every workload, in turn
    python3 perfbench/run.py --steadiness 5 --workload campaign
    python3 perfbench/run.py --selftest

Each workload runs the unmodified program from ``src/`` in fresh child
processes with a fresh, empty artifact store, times it from outside,
checks its outputs, and prints every metric with its unit and sample
count. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``. The exit code is non-zero when an output check
fails. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

from common import BENCH, ROOT, SRC, Report, environment, median
from stats import spread

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").exists() else None
WORKDIR = ROOT / ".perfbench-work"


def _workloads():
    import offline
    import serving

    return {
        "figures-cold": offline.figures_cold,
        "campaign": offline.campaign,
        "serve-open-loop": serving.serve_open_loop,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload=name, seed=seed)
    work = WORKDIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _workloads()[name](report, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return report


def _print_report(report: Report, trace: bool) -> dict:
    env = environment()
    print(f"# {report.workload} seed={report.seed} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n) in report.metrics.items():
        print(f"{report.workload:16s} {name:22s} {value:12.6f} {unit:8s} n={n}")
    for note in report.notes:
        print(f"{report.workload:16s} {note}")
    print(f"{report.workload:16s} attempted={report.attempted} failed={report.failed}")
    for name, ok, detail in report.checks:
        print(f"{report.workload:16s} check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))

    if trace:
        # Layers that did no work in this workload report 0.
        metrics = {m["name"]: {"value": float(report.layers.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in BENCHMARK["per_layer"]}
        for k, v in metrics.items():
            print(f"{report.workload:16s} layer {k:34s} {v['value']:14.6f} {v['unit']}")
    else:
        metrics = {m["name"]: {"value": report.metrics[m["name"]][0], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"] if m["name"] in report.metrics}
    return {"correct": report.correct, "attempted": max(1, report.attempted),
            "failed": report.failed, "metrics": metrics}


def _steadiness(names: list[str], repeats: int, seed: int, seconds: float) -> int:
    """Repeat each workload in fresh processes with seeds seed, seed+1, ...
    and print each end-to-end metric's quartile spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        for k in range(repeats):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed + k), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed + k}: checks failed", file=sys.stderr)
                return 1
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vals in values.items():
            s = spread(vals) if len(vals) >= 2 else float("nan")
            bound = bounds.get(metric)
            verdict = "steady" if bound is not None and s <= bound / 3 else (
                "within bound" if bound is not None and s <= bound else "NOT STEADY")
            if verdict == "NOT STEADY":
                steady = False
            print(f"{name:16s} {metric:14s} median {median(vals):10.4f} "
                  f"spread {s:6.3f} bound {bound} {verdict} "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]")
    return 0 if steady else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=(BENCHMARK or {}).get("run_seconds", 12))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="repeat each workload N times and report spreads")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.selftest:
        import selftest

        return selftest.main()
    if not (SRC / "repro" / "__init__.py").exists() or BENCHMARK is None:
        print(f"perfbench: no program under {SRC} (or no BENCHMARK.json); nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    known = list(_workloads())
    names = known if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"perfbench: unknown workload {unknown}; known: {known}", file=sys.stderr)
        return 2
    if args.steadiness:
        return _steadiness(names, args.steadiness, args.seed, args.seconds)

    results = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(_print_report(report, bool(args.trace)))
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
