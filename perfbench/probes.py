"""Scaling probes for the ROADMAP sweeps, timed by calling one layer directly.

    python3 perfbench/probes.py evaluator --seed 1
    python3 perfbench/probes.py problem --n 12

`evaluator` builds `RegularEvaluator` on 8/4 at n = 13, 16, 19 and 22 and
times `counts` on seeded random keys.  `problem` builds one
`NonregularProblem` on 8 unstructured runs and reports its build time and
the process's peak RSS, so each n needs a fresh process: a peak never
decreases.  Each prints one JSON object {metric: [value, unit]} as its
last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

from run import import_source, peak_rss_mb

EVALUATOR_SIZES = ((13, 40), (16, 20), (19, 5), (22, 2))  # (n, counts calls)
PROBLEM_SIZES = (8, 10, 12)


def evaluator_probe(seed: int) -> dict[str, tuple[float, str]]:
    import numpy as np
    from mastrat import blocks, keys, search

    b = blocks.parse_structure("8/4")
    seq = blocks.criterion_sequence(b, "forward")
    out = {}
    for n, calls in EVALUATOR_SIZES:
        t = keys.template_for(b, n, n - 5)  # 32 units: 2^(n-5) fractions
        pools = keys.default_pools(t, True)
        start = perf_counter()
        ev = search.RegularEvaluator(t, seq)
        out[f"search.evaluator_init_s_n{n}"] = (perf_counter() - start, "s")
        rng = np.random.default_rng([seed, n])
        times = []
        for _ in range(calls):
            fills = keys.random_generator_set(t, pools, rng).fills
            start = perf_counter()
            ev.counts(fills)
            times.append(perf_counter() - start)
        out[f"search.counts.us_n{n}"] = (statistics.median(times) * 1e6, "us")
        del ev
    return out


def problem_probe(n: int) -> dict[str, tuple[float, str]]:
    from mastrat import blocks, search

    start = perf_counter()
    search.NonregularProblem(
        blocks.BlockStructure.unstructured(8), n, pool=range(1 << n)
    )
    return {
        f"search.problem_init_s_n{n}": (perf_counter() - start, "s"),
        f"search.problem_init_mb_n{n}": (peak_rss_mb(), "MB"),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("probe", choices=("evaluator", "problem"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, choices=PROBLEM_SIZES, default=8)
    args = ap.parse_args()
    import_source()
    if args.probe == "evaluator":
        out = evaluator_probe(args.seed)
    else:
        out = problem_probe(args.n)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
