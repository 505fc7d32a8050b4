"""The offline workloads: ``figures-cold`` (the reproduction user) and
``campaign`` (the Monte-Carlo user)."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import tracing
from common import ROOT, Report, child_argv, median, repro_argv, run_child

FIGURES = ("fig15", "fig16", "fig17", "fig19")
#: The seed the committed goldens were generated under (each figure's default).
GOLDEN_SEED = 2009
#: ``repro list`` runs before the cold pass; more follow, interleaved
#: with the warm passes, so set-up samples spread over the whole run.
SETUP_BEFORE = 2
#: Interleaved (set-up, warm pass) pairs at least, then more while the
#: run's time allows.
MIN_PAIRS = 4
#: Cold figure passes per run, each into a fresh store; wall and CPU are
#: their median, and their payload digests must be identical.
COLD_PASSES = 2
#: Cold campaigns per run (fresh stores); wall and CPU are their median.
CAMPAIGN_REPEATS = 2


def _list_wall(empty_store: Path, work: Path) -> float:
    res = run_child(repro_argv("list", "--artifacts", str(empty_store)), work)
    if res.code != 0:
        raise RuntimeError(f"repro list failed: {res.stderr.strip()}")
    return res.wall_s


def _setup_and_warm(report: Report, work: Path, warm_argv: list[str], budget_s: float,
                    setups: list[float], check) -> bool:
    """Alternate no-work ``repro list`` runs on an empty store with warm
    passes until the budget is spent; record set-up and warm medians.
    ``check(stdout)`` tells whether a warm pass printed the right output."""
    warms, same = [], True
    deadline = time.perf_counter() + budget_s
    while len(warms) < MIN_PAIRS or time.perf_counter() < deadline:
        setups.append(_list_wall(work / "empty", work))
        res = run_child(warm_argv, work)
        if res.code != 0:
            raise RuntimeError(f"warm pass failed: {res.stderr.strip()}")
        warms.append(res.wall_s)
        same &= check(res.stdout)
    report.metric("setup_s", median(setups), "s", len(setups))
    report.layers["e2e.warm_wall_s"] = median(warms)
    report.notes.append(f"warm_wall_s {median(warms):.6f} s (n={len(warms)})")
    return same


def _figure_payloads(store: Path, seed: int) -> dict[str, dict]:
    from repro.artifacts import ArtifactStore
    from repro.experiments.orchestrator import FigureSpec

    st = ArtifactStore(store)
    return {fid: st.load_figure(FigureSpec(fid, seed)) for fid in FIGURES}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def figures_cold(report: Report, work: Path, seconds: float, trace: bool) -> None:
    setups = [_list_wall(work / "empty", work) for _ in range(SETUP_BEFORE)]

    def args(store: Path) -> list[str]:
        return ["run", *FIGURES, "--jobs", "1", "--seed", str(report.seed),
                "--artifacts", str(store)]

    colds, passes, missing = [], [], []
    for k in range(COLD_PASSES):
        store = work / f"store{k}"
        cold = run_child(repro_argv(*args(store)), work)
        report.attempted += len(FIGURES)
        if cold.code != 0:
            report.failed += len(FIGURES)
            report.check("cold run exits 0", False, cold.stderr.strip()[-400:])
            return
        payloads = _figure_payloads(store, report.seed)
        missing += [f"{fid} (pass {k})" for fid, p in payloads.items() if p is None]
        colds.append(cold)
        passes.append(payloads)
    report.check("every figure artifact written", not missing, f"missing {missing}")
    report.failed += len(missing)
    payloads, digests = passes[0], [_digest(p) for p in passes]
    wall = median([c.wall_s for c in colds])
    report.metric("wall_s", wall, "s", len(colds))
    report.metric("cpu_s", median([c.cpu_s for c in colds]), "s", len(colds))
    report.metric("peak_rss_mib", max(c.maxrss_mib for c in colds), "MiB", len(colds))
    differing = [fid for fid in FIGURES
                 if len({_digest(p[fid]) for p in passes}) > 1]
    report.failed += len(differing)
    report.check("cold passes give identical figure payloads", not differing,
                 f"{' '.join(digests)}; differing {differing}" if differing else "")

    same = _setup_and_warm(report, work, repro_argv(*args(work / "store0")), seconds / 2,
                           setups, lambda stdout: stdout == colds[0].stdout)
    report.check("warm passes print the cold figures", same)
    report.notes.append(f"figure digest {digests[0]} (seed {report.seed})")

    if report.seed == GOLDEN_SEED:
        from repro.artifacts.diffing import compare_figure_payloads

        for fid, payload in payloads.items():
            golden = json.loads((ROOT / "tests" / "goldens" / f"{fid}.json").read_text())
            drifts = compare_figure_payloads(golden, payload or {})
            report.check(f"{fid} matches its golden", not drifts, "; ".join(drifts[:3]))

    if trace:
        traced_dir = work / "spans"
        traced_dir.mkdir()
        tstore = work / "store-traced"
        traced = run_child(child_argv("cli", *args(tstore), trace_dir=traced_dir), work)
        report.check("traced run exits 0", traced.code == 0, traced.stderr.strip()[-400:])
        report.check("traced run gives the cold figures",
                     _digest(_figure_payloads(tstore, report.seed)) == digests[0])
        report.layers.update(tracing.layer_metrics(tracing.load_dumps(traced_dir)))
        report.layers["trace.overhead_s"] = traced.wall_s - wall
        report.layers["trace.overhead_share"] = (traced.wall_s - wall) / wall


def campaign(report: Report, work: Path, seconds: float, trace: bool) -> None:
    setups = [_list_wall(work / "empty", work) for _ in range(SETUP_BEFORE)]
    colds, results = [], []
    for k in range(CAMPAIGN_REPEATS):
        res = run_child(child_argv("campaign", str(report.seed), str(work / f"store{k}")), work)
        if res.code != 0:
            report.attempted += 1
            report.failed += 1
            report.check("campaign exits 0", False, res.stderr.strip()[-400:])
            return
        colds.append(res)
        results.append(json.loads(res.stdout.strip().splitlines()[-1]))
    result = results[0]
    n_points = sum(s["n_points"] for s in result["sweeps"])
    points = sum(s["points"] for s in result["sweeps"])
    report.attempted += n_points * len(results)
    report.failed += sum(max(0, n_points - sum(s["points"] for s in r["sweeps"]))
                         for r in results)
    wall = median([c.wall_s for c in colds])
    report.metric("wall_s", wall, "s", len(colds))
    report.metric("cpu_s", median([c.cpu_s for c in colds]), "s", len(colds))
    report.metric("peak_rss_mib", max(c.maxrss_mib for c in colds), "MiB", len(colds))
    report.check("point count equals n_points", points == n_points, f"{points}/{n_points}")
    report.check("every metric finite", all(s["finite"] for r in results for s in r["sweeps"]))
    report.notes.append(f"points_per_s {points / wall:.4f} points/s (n={len(colds)})")
    report.layers["e2e.points_per_s"] = points / wall

    digests = [s["digest"] for s in result["sweeps"]]
    same = all([s["digest"] for s in r["sweeps"]] == digests for r in results)
    warm_argv = child_argv("campaign", str(report.seed), str(work / "store0"))
    same &= _setup_and_warm(
        report, work, warm_argv, seconds / 2, setups,
        lambda stdout: [s["digest"] for s in json.loads(stdout.splitlines()[-1])["sweeps"]]
        == digests,
    )
    report.check("sweep result digest identical across runs", same)
    report.notes.append(
        "sweep digests " + " ".join(f"{s['name']}={s['digest'][:16]}" for s in result["sweeps"])
    )

    if trace:
        traced_dir = work / "spans"
        traced_dir.mkdir()
        targv = child_argv("campaign", str(report.seed), str(work / "store-traced"),
                           trace_dir=traced_dir)
        traced = run_child(targv, work)
        report.check("traced campaign exits 0", traced.code == 0, traced.stderr.strip()[-400:])
        report.layers.update(
            tracing.layer_metrics(tracing.load_dumps(traced_dir), wall_s=traced.wall_s)
        )
        report.layers["trace.overhead_s"] = traced.wall_s - wall
        report.layers["trace.overhead_share"] = (traced.wall_s - wall) / wall
