"""Child-process entry points of the benchmark.

    python perfbench/child.py [--trace DIR] cli ARGS...        # repro.cli.main(ARGS)
    python perfbench/child.py [--trace DIR] campaign SEED DIR  # the seeded campaign

With ``--trace DIR`` the span recorder wraps the program's layer
functions first and writes the spans under DIR when the process ends
(also on SIGTERM, which the serving CLI turns into a graceful drain).
The program itself is imported unmodified from ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from dataclasses import replace

#: The registered sweeps the campaign workload runs, base seeds replaced.
CAMPAIGN_SWEEPS = ("fig15-ensemble", "joint-penalty-grid")
CAMPAIGN_JOBS = 2


def campaign_specs(seed: int) -> list:
    from repro import sweeps

    specs = []
    for name in CAMPAIGN_SWEEPS:
        spec = sweeps.get(name)
        base = spec.base
        specs.append(spec.derive(base=base.derive(
            market=replace(base.market, seed=seed), trace=replace(base.trace, seed=seed)
        )))
    return specs


def run_campaign(seed: int, store_dir: str) -> dict:
    """Run the seeded campaign into ``store_dir``; report its checked outputs."""
    from repro import artifacts, sweeps

    artifacts.configure(store_dir)
    out = {"sweeps": []}
    for spec in campaign_specs(seed):
        result = sweeps.run_sweep(spec, jobs=CAMPAIGN_JOBS)
        payload = result.to_json_dict()
        values = [v for cell in payload["cells"] for s in cell["stats"].values()
                  for v in s.values()]
        out["sweeps"].append({
            "name": spec.name,
            "n_points": spec.n_points,
            "points": sum(cell["n_replicas"] for cell in payload["cells"]),
            "finite": all(math.isfinite(v) for v in values),
            "digest": hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()
            ).hexdigest(),
        })
    return out


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace"]:
        trace_dir, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]

    with contextlib.ExitStack() as stack:
        if trace_dir is not None:
            import tracing
            from repro.sim import profiling

            recorder = tracing.Recorder(trace_dir)
            tracing.install(recorder)
            phases = stack.enter_context(profiling.profiled())
            stack.callback(recorder.dump, phases)
        if mode == "cli":
            from repro.cli import main as cli_main

            code = cli_main(args)
        elif mode == "campaign":
            print(json.dumps(run_campaign(int(args[0]), args[1])))
            code = 0
        else:
            print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
            code = 2
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
