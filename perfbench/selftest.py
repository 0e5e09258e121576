"""Self-test of the benchmark's own checks and trace accounting.

    python3 perfbench/selftest.py

For one small operation of each kind (regular search, nonregular search,
design scoring) it confirms that a correct result passes its check, that
a deliberately corrupted value is counted as failed, in the first round
or in a repeat, and that an operation which raises is counted as failed.  It also confirms that the
traced self times plus the remainder add up to the traced wall time.
Exits 1 if anything is off.
"""

from __future__ import annotations

import math
import sys
import time

from run import check_rounds, import_source, run_rounds


def small_workloads(workloads):
    return (
        workloads.BlockedSearch(
            "blocked-n9", 9, 4, ("forward",), seeds=1, S=4, T=3
        ),
        workloads.NonregularSearch("nonregular-n4", 8, 4, seeds=1, S=4, T=2),
        workloads.LatinScoring("latin-n6", 6, designs=2),
    )


def failed_ops(wl, count=2, before=None, after=None) -> list:
    """Run and check `count` rounds; `before` edits the inputs and
    `after` the results.  Returns the failed ops."""
    inputs = wl.inputs(1)
    if before:
        before(wl, inputs)
    rounds = run_rounds(wl, inputs, count=count)
    if after:
        after(wl, rounds)
    return [op for op in check_rounds(wl, rounds) if not op.ok]


def bump(op) -> None:
    value = list(op.value)
    value[-1] += 1
    op.value = tuple(value)


def bump_first(wl, rounds) -> None:
    bump(rounds[0][0][2])


def bump_repeat(wl, rounds) -> None:
    bump(rounds[1][0][2])


def break_input(wl, inputs) -> None:
    if hasattr(wl, "S"):
        wl.S = 0  # run_algorithm3 and run_algorithm4 refuse S < 1
    else:
        inputs[0].best = (1 << wl.n,) * len(inputs[0].best)  # no such run


def main() -> int:
    import_source()
    import tracing
    import workloads

    problems = []
    for wl in small_workloads(workloads):
        wl.setup()
        if failed_ops(wl):
            problems.append(f"{wl.name}: a correct result counted as failed")
        if not failed_ops(wl, after=bump_first):
            problems.append(f"{wl.name}: a corrupted value was not counted")
        if len(failed_ops(wl, after=bump_repeat)) != 1:
            problems.append(f"{wl.name}: a corrupted repeat was not counted")
        if len(failed_ops(wl, count=1, before=break_input)) != 1:
            problems.append(f"{wl.name}: an operation that raised was not counted")

    wl = small_workloads(workloads)[0]
    wl.setup()
    rec = tracing.Recorder()
    rec.phase = "run"
    rec.install(tracing.RUN_TARGETS)
    try:
        start = time.perf_counter()
        run_rounds(wl, wl.inputs(1), count=1)
        wall = time.perf_counter() - start
    finally:
        rec.uninstall()
    self_s = sum(st.self_s for st in rec.stats("run").values())
    remainder = wall - rec.covered_s("run")
    if not (remainder >= 0 and math.isclose(self_s + remainder, wall, rel_tol=1e-9)):
        problems.append("traced self times plus remainder do not add up")
    if not rec.stats("run").get("search.counts"):
        problems.append("no search.counts spans were recorded")

    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
