"""Rebuild bench/strata.json, the input pools of the fuzz_enforced and
storm_undefended workloads.

    python3 bench/strata.py

Op cost follows the event count, which is skewed for enforced fuzz runs and
heavy-tailed for undefended ones: a handful of scenarios in any window of
consecutive fuzz seeds carry most of its cost, so two windows of the same
size differ by more than any bound a change could be judged against. Each
workload's pool of scenario seeds is therefore sorted by the number of
events each produces, as that workload runs it, at the commit that defined
the benchmark, and cut into equal strata; a workload seed draws one
scenario from each stratum. Every window then holds the same share of small
runs and of storms.

The storm pool leaves out its single largest run (seed 1328: 56,295 events,
three times the next, and half as many as the other runs of a window
together). Kept in every window it took half of each pass, so storm
throughput would measure that one scenario; kept in one stratum of many it
alone decided whether a window was slow.

The strata are frozen: a later change that alters event counts keeps the
same windows, so its effect shows.
"""

from __future__ import annotations

import json
import sys

import run

POOL = 3000


def stratify(events: dict[int, int], window: int) -> list[list[int]]:
    """``window`` near-equal strata covering every seed, by ascending event
    count."""
    order = sorted(events, key=lambda s: (events[s], s))
    n = len(order)
    return [order[i * n // window : (i + 1) * n // window] for i in range(window)]


def main() -> int:
    if not (run.SRC / "reentryguard" / "__init__.py").is_file():
        print(f"strata: no program sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    rg = run.import_package()
    pools: dict = {"tick_cap": run.STORM_TICK_CAP, "pool": POOL}
    for workload, window in (("fuzz_enforced", run.FUZZ_WINDOW), ("storm_undefended", run.STORM_WINDOW)):
        events = {s: len(rg.sim.Ecosystem(run.sampled_scenario(rg, workload, s)).run()) for s in range(POOL)}
        if workload == "storm_undefended":
            del events[max(events, key=events.__getitem__)]
        pools[workload] = strata = stratify(events, window)
        print(f"{workload}: {len(strata)} strata; the largest run has {events[strata[-1][-1]]} events")
    run.STRATA_FILE.write_text(json.dumps(pools) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
