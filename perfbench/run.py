"""The mastrat benchmark.

    python3 perfbench/run.py --workload blocked-n13 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # all four workloads

Each workload runs in one fresh process that builds mastrat's inputs from
the seed, repeats the same round of operations for at least --seconds,
timing each operation against a unit of reference work (reference.py),
and checks every result against the independent matrix route.  The last
stdout line is one JSON object: {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
peak_rss_mb); with --trace 1 a separate traced pass gives the per-layer
ones.  A full run record goes to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# The keys of workloads.WORKLOADS, named here because importing that module
# imports mastrat, which belongs inside the timed set-up.
WORKLOADS = ("blocked-n13", "blocked-n16", "nonregular-oa8", "evaluate-latin")
SETUP_CHILDREN = 6  # fresh set-up processes besides the workload process
CHILD_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_source() -> None:
    """Import mastrat from this checkout's src/, never from elsewhere."""
    if not (SRC / "mastrat" / "__init__.py").is_file():
        fail(f"no mastrat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mastrat

    if not Path(mastrat.__file__).resolve().is_relative_to(SRC):
        fail(f"mastrat imported from {mastrat.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    VmHWM starts afresh at exec; `ru_maxrss` keeps the parent's peak when
    that was larger, so it is only the fallback.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(args: list[str]) -> dict:
    """Run a helper process to completion; return its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(name: str, traced: bool = False):
    """Import mastrat and build the workload's inputs.

    Returns the workload, the span recorder when `traced` (its set-up
    spans recorded), and the seconds taken from before the import, which
    is what a CLI user pays on every run.
    """
    start = time.perf_counter()
    import_source()
    import workloads

    wl = workloads.WORKLOADS[name]
    rec = None
    if traced:
        import tracing

        rec = tracing.Recorder()
        rec.install(tracing.SETUP_TARGETS)
    try:
        wl.setup()
    finally:
        if rec is not None:
            rec.uninstall()
    return wl, rec, time.perf_counter() - start


def run_rounds(wl, inputs, seconds=0.0, count=0, check=False):
    """Repeat the round `inputs`: `count` times, or until `seconds` of timing.

    Returns one list per round of (wall seconds, reference seconds, op),
    each op a fresh repeat of the matching input and the reference the
    median reference unit timed just before it.  With `check`, each round
    is checked as soon as it ends, outside the timing.
    """
    import reference

    rounds, total = [], 0.0
    while True:
        timed = []
        for op in (op.fresh() for op in inputs):
            ref = reference.time_units(wl.ref_units)
            t0 = time.perf_counter()
            wl.run(op)
            timed.append((time.perf_counter() - t0, ref, op))
        rounds.append(timed)
        if check:
            check_round(wl, timed, rounds[0] if len(rounds) > 1 else None)
        total += sum(t for t, _, _ in timed)
        if (count and len(rounds) >= count) or (not count and total >= seconds):
            return rounds


def round_time(rounds) -> tuple[float, float]:
    """One round's time, scaled to the reference speed, and unscaled.

    Each operation's time is divided by the reference unit timed just
    before it, then multiplied by the unit's nominal seconds; the median
    over its repeats is taken, and the operations summed.  The unscaled
    time sums each operation's median wall time.
    """
    import reference

    scaled = sum(
        statistics.median(t / ref for t, ref, _ in reps)
        for reps in zip(*rounds)
    ) * reference.UNIT_S
    wall = sum(
        statistics.median(t for t, _, _ in reps) for reps in zip(*rounds)
    )
    return scaled, wall


def check_round(wl, timed, first=None) -> None:
    """Check one round's ops: by the matrix route, or against the ops of
    `first`, the checked first round of the same inputs."""
    for i, (_, _, op) in enumerate(timed):
        wl.check(op, first[i][2] if first else None)


def check_rounds(wl, rounds) -> list:
    """Check every round's ops; return them all."""
    for k, timed in enumerate(rounds):
        check_round(wl, timed, rounds[0] if k else None)
    return [op for timed in rounds for _, _, op in timed]


def optimum_rate(ops) -> tuple[float, int, int]:
    """Share of searches with a known optimum that reached it."""
    known = [op for op in ops if op.optimum]
    hits = sum(op.reached_optimum for op in known)
    return (hits / len(known) if known else 0.0), hits, len(known)


# -- run record --------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """OpenBLAS thread count, from the library numpy has loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def run_record(args, extra: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine_tuning": "none: no CPU pinning, cache drops or frequency settings",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


def op_record(op) -> dict:
    return {
        "kind": op.kind,
        "seed": op.seed,
        "value": [str(v) for v in op.value],
        "ok": op.ok,
        "reached_optimum": op.reached_optimum,
        "error": op.error,
    }


# -- the two passes ----------------------------------------------------


def gated_pass(args) -> tuple[dict, list, dict]:
    """End-to-end metrics with tracing off."""
    wl, _, setup_s = set_up(args.workload)
    rounds = run_rounds(wl, wl.inputs(args.seed), args.seconds, check=True)
    peak_mb = peak_rss_mb()
    setups = [setup_s] + [
        child([__file__, "--workload", args.workload, "--setup-only"])["setup_s"]
        for _ in range(SETUP_CHILDREN)
    ]
    run_s, wall_s = round_time(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    record = {
        "setup_samples_s": setups,
        "wall_round_s": wall_s,
        "round_s": [sum(t for t, _, _ in timed) for timed in rounds],
        "op_s": [[t for t, _, _ in timed] for timed in rounds],
        "reference_unit_s": [[r for _, r, _ in timed] for timed in rounds],
    }
    return metrics, rounds, record


def traced_pass(args) -> tuple[dict, list, dict]:
    """Per-layer metrics: the same rounds untraced, then traced."""
    wl, rec, setup_s = set_up(args.workload, traced=True)
    import tracing

    k = wl.trace_rounds
    inputs = wl.inputs(args.seed)
    untraced = run_rounds(wl, inputs, count=k)
    rec.phase = "run"
    rec.install(tracing.RUN_TARGETS)
    try:
        traced = run_rounds(wl, inputs, count=k)
    finally:
        rec.uninstall()
    # Same inputs, so every traced round must give the untraced results.
    rounds = untraced + traced
    check_rounds(wl, rounds)

    probes = child([str(BENCH / "probes.py"), "evaluator", "--seed", str(args.seed)])
    for n in (8, 10, 12):
        probes.update(child([str(BENCH / "probes.py"), "problem", "--n", str(n)]))

    def wall(rounds) -> float:
        return sum(t for timed in rounds for t, _, _ in timed)

    RESULTS.mkdir(exist_ok=True)
    rec.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    metrics = layer_metrics(
        rec,
        overhead=round_time(traced)[0] / round_time(untraced)[0] - 1,
        traced_s=wall(traced),
        setup_s=setup_s,
        rate=optimum_rate([op for _, _, op in rounds[0]])[0],
    )
    metrics.update((name, tuple(vu)) for name, vu in probes.items())
    record = {
        "trace_rounds": k,
        "untraced_round_s": [wall([timed]) for timed in untraced],
        "traced_round_s": [wall([timed]) for timed in traced],
        "spans": {
            phase: {name: vars(st) for name, st in rec.stats(phase).items()}
            for phase in ("setup", "run")
        },
    }
    return metrics, rounds, record


def layer_metrics(rec, overhead, traced_s, setup_s, rate) -> dict:
    """Span counts and time shares, plus the ratios the metric map names.

    A span's `self_frac` is its self time as a share of its phase's traced
    wall time (`trace.run_s` or `trace.setup_s`), so the run-phase shares
    plus `trace.remainder_frac` add up to 1.  An idle layer reads 0 calls
    and a 0 share; seconds per span are in the run record.
    """
    from tracing import RUN_SPANS, SETUP_SPANS, SpanStats

    run = defaultdict(SpanStats, rec.stats("run"))
    setup = defaultdict(SpanStats, rec.stats("setup"))
    out: dict[str, tuple[float, str]] = {}
    for stats, names, wall in (
        (run, RUN_SPANS, traced_s), (setup, SETUP_SPANS, setup_s)
    ):
        for name in names:
            out[f"{name}.calls"] = (stats[name].calls, "count")
            out[f"{name}.self_frac"] = (stats[name].self_s / wall, "ratio")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts, value = run["search.counts"], run["search.value"]
    invertible = run["keys.is_invertible"]
    out["keys.inversions_per_eval"] = (
        ratio(run["gf2.inverse"].calls, counts.calls), "ratio"
    )
    out["keys.singular_rate"] = (
        ratio(invertible.false_returns, invertible.calls), "ratio"
    )
    out["search.memo_hit_rate"] = (
        1 - ratio(counts.calls, value.calls) if value.calls else 0.0, "ratio"
    )
    out["optimum_rate"] = (rate, "ratio")
    out["trace.run_s"] = (traced_s, "s")
    out["trace.setup_s"] = (setup_s, "s")
    out["trace.remainder_frac"] = (1 - rec.covered_s("run") / traced_s, "ratio")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (len(rec.spans), "count")
    return out


# -- entry points ------------------------------------------------------


def run_workload(args) -> None:
    passed = traced_pass if args.trace else gated_pass
    metrics, rounds, extra = passed(args)
    ops = [op for timed in rounds for _, _, op in timed]
    failed = sum(not op.ok for op in ops)
    rate, hits, known = optimum_rate([op for _, _, op in rounds[0]])
    record = run_record(args, extra)
    record["operations"] = [op_record(op) for op in ops]
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if "wall_round_s" in extra:  # run_s before scaling, for reference
        print(f"  {'wall round (unscaled)':34s} {extra['wall_round_s']:.6g} s")
    if "optimum_rate" not in metrics:  # a per-layer metric, printed anyway
        text = (f"{rate:.6g} ratio ({hits} of {known} distinct searches reached"
                " the paper optimum)" if known else "n/a (no known optimum)")
        print(f"  {'optimum_rate':34s} {text}")
    print(f"  {'failed':34s} {failed} of {len(ops)} operations")
    for op in ops:
        if op.error:
            print(f"  failed {op.kind} seed {op.seed}: {op.error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> None:
    """Every workload, each in its own fresh process."""
    results = {}
    for name in WORKLOADS:
        cmd = [__file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=180)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{m}": v
            for name, r in results.items()
            for m, v in r["metrics"].items()
        },
    }))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up sample, for setup_s
    args = ap.parse_args()
    if args.setup_only:
        _, _, setup_s = set_up(args.workload)
        print(json.dumps({"setup_s": setup_s}))
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
