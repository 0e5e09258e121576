"""Command-line front end: search, evaluate, and oracle subcommands.

Configuration comes from flags, optionally seeded by a JSON config file
(flags override file values).  Reports are printed as ``G<i>-MA {...}``
lines matching the library's table rendering; with ``--out-dir`` the
design table, design key (regular mode), JSON report, metadata, and an
optional iteration trace are written alongside.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .aberration import (
    compute_Bki_matrix,
    compute_WG,
    render_report,
)
from .blocks import (
    BlockStructure,
    admissible_subsets,
    criterion_sequence,
    parse_structure,
    strata_projectors,
)
from .keys import (
    GeneratorSet,
    default_pools,
    defining_words_text,
    design_to_text,
    expand_design,
    template_for,
    letters_for,
)
from .search import (
    NonregularProblem,
    QVector,
    SpaceTooLargeError,
    oracle_regular,
    run_algorithm3,
    run_algorithm4,
)


class UsageError(ValueError):
    """Inconsistent or incomplete configuration."""


def _parse_split(text: str) -> dict[str, int]:
    """Parse 'rows=A..F,cols=G..J' or 'rows=6,cols=4' into counts."""
    out: dict[str, int] = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad split component {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        val = val.strip()
        if ".." in val:
            lo, hi = val.split("..", 1)
            if len(lo) != 1 or len(hi) != 1 or hi < lo:
                raise UsageError(f"bad letter range {val!r}")
            out[key] = ord(hi) - ord(lo) + 1
        else:
            out[key] = int(val)
    return out


def _read_table(path: str) -> tuple[list[str] | None, list[list[int]]]:
    """Delimiter-separated integer table with an optional header line."""
    lines = [
        ln.strip()
        for ln in Path(path).read_text().splitlines()
        if ln.strip()
    ]
    if not lines:
        raise UsageError(f"{path}: empty table")
    sep = "," if "," in lines[0] else None
    header: list[str] | None = None
    first = lines[0].split(sep)
    try:
        [int(v) for v in first]
    except ValueError:
        header = [v.strip() for v in first]
        lines = lines[1:]
    rows = [[int(v) for v in ln.split(sep)] for ln in lines]
    return header, rows


def _build_structure(cfg: dict) -> BlockStructure:
    if cfg.get("class_table"):
        header, rows = _read_table(cfg["class_table"])
        if header is None:
            header = [f"F{j + 1}" for j in range(len(rows[0]))]
        return BlockStructure.from_class_table(rows, header)
    if cfg.get("structure"):
        return parse_structure(str(cfg["structure"]))
    raise UsageError("one of --structure or --class-table is required")


def _sequence_for(cfg: dict, b: BlockStructure, alias_counts=None):
    crit = cfg.get("criterion", "forward")
    if isinstance(crit, list):
        return [tuple(g) for g in crit]
    if crit in ("forward", "backward"):
        return criterion_sequence(b, crit, alias_counts)
    raise UsageError(f"unknown criterion {crit!r}")


def _default_q(cfg: dict, slot_count: int, nonregular: bool) -> QVector:
    explicit = [cfg.get("q_gb"), cfg.get("q_lb"), cfg.get("q_new")]
    if any(v is not None for v in explicit):
        q = QVector(*(0 if v is None else int(v) for v in explicit))
        q.validate(slot_count)
        return q
    for cand in ((2, 2, 4), (2, 1, 3), (1, 1, 2), (1, 0, 1), (0, 0, 1)):
        if not nonregular and cand == (2, 2, 4):
            continue
        if sum(cand) <= slot_count:
            return QVector(*cand)
    return QVector(0, 0, 0)  # no free positions: nothing to search


def _write_artifacts(out_dir: str | None, files: dict[str, str]) -> None:
    if not out_dir:
        return
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (root / name).write_text(content)


def _report_json(subsets, table) -> str:
    return json.dumps(
        {
            "subsets": [list(g) for g in subsets],
            "patterns": [
                [str(v) for v in compute_WG(table, g)] for g in subsets
            ],
        },
        indent=2,
    )


def _trace_text(trace) -> str:
    return (
        "\n".join(
            json.dumps({"iteration": t, "value": [str(v) for v in val]})
            for t, val in trace
        )
        + "\n"
    )


def cmd_search(cfg: dict) -> int:
    b = _build_structure(cfg)
    mode = cfg.get("mode", "regular")
    seed = int(cfg.get("seed", 0))
    S = int(cfg.get("S", 50))
    T = int(cfg.get("T", 50))
    out_dir = cfg.get("out_dir")
    want_trace = bool(cfg.get("trace"))
    if mode == "regular":
        if cfg.get("n") is None or cfg.get("l0") is None:
            raise UsageError("regular search requires --n and --l0")
        split = (
            _parse_split(cfg["split"]) if cfg.get("split") else None
        )
        tpl = template_for(b, int(cfg["n"]), int(cfg["l0"]), split)
        pools = default_pools(tpl, reduced=cfg.get("reduce_pools", True))
        seq = _sequence_for(cfg, b, tpl.stratum_alias_counts)
        q = _default_q(cfg, len(tpl.slots), nonregular=False)
        res = run_algorithm3(
            tpl,
            pools,
            seq,
            S=S,
            T=T,
            q=q,
            seed=seed,
            distinct_within_stratum=bool(cfg.get("distinct", False)),
        )
        gs = GeneratorSet(tpl, res.best)
        design = expand_design(gs, signed=True)
        key_lines = [
            gs.key_inverse_basic.render(),
            "",
            *defining_words_text(gs).splitlines(),
        ]
        files = {
            "design.csv": design_to_text(
                design, list(tpl.factor_names)
            ),
            "key.txt": "\n".join(key_lines) + "\n",
        }
    elif mode == "nonregular":
        if cfg.get("n") is None:
            raise UsageError("nonregular search requires --n")
        n = int(cfg["n"])
        problem = NonregularProblem(
            b,
            n,
            pool=list(range(1 << n)),
            distinct=bool(cfg.get("distinct", False)),
        )
        seq = _sequence_for(cfg, b)
        q = _default_q(cfg, problem.n_slots, nonregular=True)
        res = run_algorithm4(problem, seq, S=S, T=T, q=q, seed=seed)
        design = problem.design_rows(res.best)
        files = {
            "design.csv": design_to_text(design, list(letters_for(n))),
        }
    else:
        raise UsageError(f"unknown mode {mode!r}")
    report = render_report(res.table, res.report_subsets)
    print(report)
    files["report.txt"] = report + "\n"
    files["report.json"] = _report_json(res.report_subsets, res.table)
    files["metadata.json"] = json.dumps(
        dict(res.metadata, value=[str(v) for v in res.value]), indent=2
    )
    if want_trace:
        files["trace.jsonl"] = _trace_text(res.trace)
    _write_artifacts(out_dir, files)
    return 0


def cmd_evaluate(cfg: dict) -> int:
    b = _build_structure(cfg)
    if not cfg.get("design"):
        raise UsageError("--design is required")
    _header, rows = _read_table(cfg["design"])
    design = np.array(rows, dtype=np.int64)
    if design.shape[0] != b.N:
        raise UsageError(
            f"design has {design.shape[0]} rows but the structure "
            f"has {b.N} units"
        )
    table = compute_Bki_matrix(design, strata_projectors(b))
    crit = cfg.get("criterion")
    if isinstance(crit, list):
        subsets = [tuple(g) for g in crit]
    else:
        subsets = admissible_subsets(b)
    report = render_report(table, subsets)
    print(report)
    _write_artifacts(
        cfg.get("out_dir"),
        {
            "report.txt": report + "\n",
            "report.json": _report_json(subsets, table),
        },
    )
    return 0


def cmd_oracle(cfg: dict) -> int:
    b = _build_structure(cfg)
    mode = cfg.get("mode", "regular")
    cap = int(cfg.get("cap", 10**6))
    if mode == "regular":
        if cfg.get("n") is None or cfg.get("l0") is None:
            raise UsageError("regular oracle requires --n and --l0")
        split = (
            _parse_split(cfg["split"]) if cfg.get("split") else None
        )
        tpl = template_for(b, int(cfg["n"]), int(cfg["l0"]), split)
        pools = default_pools(tpl, reduced=cfg.get("reduce_pools", True))
        seq = _sequence_for(cfg, b, tpl.stratum_alias_counts)
        fills, value, ties = oracle_regular(tpl, pools, seq, cap=cap)
        from .search import RegularEvaluator

        table = RegularEvaluator(tpl, seq).table(fills)
        subsets = [tuple(g) for g in seq]
    elif mode == "nonregular":
        if cfg.get("n") is None:
            raise UsageError("nonregular oracle requires --n")
        n = int(cfg["n"])
        # One of 2^n runs per unit; checked before the problem and its
        # 2^n-row tables are built.
        size = (1 << n) ** b.N
        if size > cap:
            raise SpaceTooLargeError(
                f"{size} assignments exceed the cap of {cap}"
            )
        problem = NonregularProblem(b, n, pool=list(range(1 << n)))
        seq = _sequence_for(cfg, b)
        problem.set_sequence(seq)
        best_assign, best_value, ties = None, None, 0
        for assign in itertools.product(
            problem.pool, repeat=problem.n_slots
        ):
            v = problem.exact_value(assign)
            if best_value is None or v < best_value:
                best_assign, best_value, ties = assign, v, 1
            elif v == best_value:
                ties += 1
        table = problem.table(best_assign)
        subsets = [tuple(g) for g in seq]
        value = best_value
    else:
        raise UsageError(f"unknown mode {mode!r}")
    report = render_report(table, subsets)
    print(report)
    print(f"co-optimal designs: {ties}")
    _write_artifacts(
        cfg.get("out_dir"),
        {
            "report.txt": report + "\n",
            "report.json": _report_json(subsets, table),
            "metadata.json": json.dumps(
                {"ties": ties, "value": [str(v) for v in value]}, indent=2
            ),
        },
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--structure", help='structure expression, e.g. "8/4"')
    p.add_argument("--class-table", dest="class_table", help="class-table file")
    p.add_argument("--n", type=int, help="number of treatment factors")
    p.add_argument("--l0", type=int, help="number of treatment generators")
    p.add_argument("--split", help='crossed factor split, e.g. "rows=A..F,cols=G..J"')
    p.add_argument("--mode", choices=["regular", "nonregular"], help="search mode")
    p.add_argument("--criterion", help="forward or backward")
    p.add_argument("--reduce-pools", dest="reduce_pools", action="store_true",
                   default=None, help="use hierarchy-reduced pools (default)")
    p.add_argument("--full-pools", dest="reduce_pools", action="store_false",
                   help="use unreduced pools")
    p.add_argument("--out-dir", dest="out_dir", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mastrat",
        description="Minimum-aberration multi-stratum design search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("search", help="swarm search for a design")
    _add_common(ps)
    ps.add_argument("--S", type=int, help="number of particles")
    ps.add_argument("--T", type=int, help="number of iterations")
    ps.add_argument("--q-gb", dest="q_gb", type=int, help="swaps toward the global best")
    ps.add_argument("--q-lb", dest="q_lb", type=int, help="swaps toward the local best")
    ps.add_argument("--q-new", dest="q_new", type=int, help="fresh random swaps")
    ps.add_argument("--seed", type=int, help="master random seed")
    ps.add_argument("--distinct", action="store_true", default=None,
                    help="forbid repeated runs / generators")
    ps.add_argument("--trace", action="store_true", default=None,
                    help="record the per-iteration best value")
    ps.set_defaults(func=cmd_search)

    pe = sub.add_parser("evaluate", help="word counts of a fixed design")
    _add_common(pe)
    pe.add_argument("--design", help="design table file (+/-1 entries)")
    pe.set_defaults(func=cmd_evaluate)

    po = sub.add_parser("oracle", help="exhaustive optimum for small spaces")
    _add_common(po)
    po.add_argument("--cap", type=int, help="largest space to enumerate")
    po.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg: dict = {}
    if args.config:
        cfg.update(json.loads(Path(args.config).read_text()))
    for key, val in vars(args).items():
        if key in ("config", "command", "func"):
            continue
        if val is not None:
            cfg[key] = val
    try:
        return args.func(cfg)
    except SpaceTooLargeError as e:
        print(f"error: search space too large: {e}", file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # surface module errors as diagnostics
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
