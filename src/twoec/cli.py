"""Command-line interface: gen, solve, verify, oracle, bench, compare.

Exit codes: 0 success, 1 verification mismatch, 2 infeasible input,
3 parse error, 4 internal invariant violation ("internal: ...") or oracle
budget exhausted ("budget: ...").
"""

import argparse
import concurrent.futures
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from . import harness
from .errors import (InfeasibleError, InternalContradiction,
                     OracleBudgetError, OracleTimeout, ParseError)
from .graph import Edge, Graph, is_2ec
from .harness import (FAMILIES, baseline_dfs2, format_instance,
                      instance_hash, parse_instance, report_json,
                      report_with_opt, solve, verify)
from .oracle import min_2ecss
from .reduction import ALPHA_MIN


def _read_graph(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_instance(text)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _deadline(args) -> Optional[float]:
    """The one deadline of an instance, made when work on it starts: its
    solve and its optimum share `--oracle-time-cap` seconds."""
    cap = args.oracle_time_cap
    return None if cap is None else time.monotonic() + cap


def _alpha(text: str) -> Fraction:
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--alpha {text!r} is not a fraction") from None
    if alpha < ALPHA_MIN:
        raise ParseError(f"--alpha {text} is below {ALPHA_MIN}")
    return alpha


def _solve_flags(args) -> Dict[str, object]:
    if args.max_guesses is not None and args.max_guesses < 1:
        raise ParseError(f"--max-guesses {args.max_guesses} is below 1")
    return dict(alpha=_alpha(args.alpha),
                seed=args.seed,
                max_guesses=args.max_guesses,
                want_trace=args.trace)


def cmd_gen(args) -> int:
    g = harness.generate(args.family, args.n, args.seed,
                         density=args.density, chords=args.chords)
    comments = [f"family {args.family} n {args.n} seed {args.seed}",
                f"hash {instance_hash(g)}"]
    _write(args.out, format_instance(g, comments))
    return 0


def cmd_solve(args) -> int:
    g = _read_graph(args.instance)
    deadline = _deadline(args)
    sol, report = solve(g, deadline=deadline, **_solve_flags(args))
    if args.with_opt:
        report = report_with_opt(g, report, deadline, args.oracle_vertex_cap)
    text = report_json(report)
    _write(args.report, text)
    if args.report not in (None, "-"):
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.instance)
    ids = []
    for tok in Path(args.solution).read_text().split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise ParseError(f"{args.solution}: edge id {tok!r} is not an "
                             "integer") from None
    verdict = verify(g, ids)
    out = {"instance": instance_hash(g), "size": len(set(ids)), **verdict}
    if args.with_opt and verdict["status"] == "OK":
        out = report_with_opt(g, out, _deadline(args), args.oracle_vertex_cap)
    _write(args.report, report_json(out))
    return 0 if verdict["status"] == "OK" else 1


def cmd_oracle(args) -> int:
    g = _read_graph(args.instance)
    if not is_2ec(g):
        raise InfeasibleError("input graph is not 2-edge-connected")
    opt = min_2ecss(g, _deadline(args), args.oracle_vertex_cap)
    out = {"instance": instance_hash(g), "algorithm": "oracle",
           "n": g.n, "m": g.m, "solution": sorted(opt), "size": len(opt)}
    _write(args.report, report_json(out))
    return 0


def _bench_one(path: str, flags: Dict[str, object],
               args) -> Dict[str, object]:
    g = _read_graph(path)
    deadline = _deadline(args)
    try:
        sol, report = solve(g, deadline=deadline, **flags)
        size, certified = len(sol), report["certified"]
    except (OracleBudgetError, OracleTimeout):
        size = certified = None
    base = baseline_dfs2(g)
    row: Dict[str, object] = {
        "file": path,
        "instance": instance_hash(g),
        "n": g.n, "m": g.m,
        "paper54": size,
        "dfs2approx": len(base),
        "certified": certified,
    }
    if args.with_opt:
        try:
            opt = min_2ecss(g, deadline, args.oracle_vertex_cap)
            row["opt"] = len(opt)
            if size is not None:
                row["ratio"] = str(Fraction(size, len(opt)))
            row["baseline_ratio"] = str(Fraction(len(base), len(opt)))
        except (OracleBudgetError, OracleTimeout):
            row["opt"] = None
    return row


def cmd_bench(args) -> int:
    paths: List[str] = []
    for item in args.instances:
        p = Path(item)
        if p.is_dir():
            paths += sorted(str(q) for q in p.glob("*.txt"))
        else:
            paths.append(item)
    flags = _solve_flags(args)
    if args.jobs > 1 and len(paths) > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            rows = list(pool.map(_bench_one, paths, [flags] * len(paths),
                                 [args] * len(paths)))
    else:
        rows = [_bench_one(p, flags, args) for p in paths]
    rows.sort(key=lambda r: (str(r["instance"]), str(r["file"])))
    cols = ["file", "n", "m", "paper54", "dfs2approx", "opt", "ratio"]
    for row in rows:
        print("  ".join(f"{row.get(c, '')}" for c in cols))
    out = {"algorithm": "bench", "rows": rows, "count": len(rows)}
    if args.report:
        _write(args.report, report_json(out))
    return 0


def cmd_compare(args) -> int:
    g = _read_graph(args.instance)
    deadline = _deadline(args)
    sol, report = solve(g, deadline=deadline, **_solve_flags(args))
    base = baseline_dfs2(g)
    out = dict(report)
    out["dfs2approx"] = len(base)
    if args.with_opt:
        out = report_with_opt(g, out, deadline, args.oracle_vertex_cap)
        out["baseline_ratio"] = str(Fraction(len(base), int(out["opt"])))
    _write(args.report, report_json(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="twoec")
    sub = top.add_subparsers(dest="command", required=True)

    # flag groups; each subcommand gets only the flags it reads
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("instance", help="instance file, or - for stdin")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--oracle-vertex-cap", type=int, default=16)
    budget.add_argument("--oracle-time-cap", type=float, default=None)
    budget.add_argument("--report", default=None,
                        help="write the JSON report here instead of stdout")
    with_opt = argparse.ArgumentParser(add_help=False, parents=[budget])
    with_opt.add_argument("--with-opt", action="store_true",
                          help="also run the exact oracle and report the ratio")
    pipeline = argparse.ArgumentParser(add_help=False, parents=[with_opt])
    pipeline.add_argument("--alpha", default="5/4")
    pipeline.add_argument("--seed", type=int, default=None)
    pipeline.add_argument("--trace", action="store_true")
    pipeline.add_argument("--max-guesses", type=int, default=None)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--chords", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    sub.add_parser("solve", help="run the 5/4 pipeline",
                   parents=[instance, pipeline]).set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file",
                       parents=[instance, with_opt])
    p.add_argument("solution", help="file of whitespace-separated edge ids")
    p.set_defaults(func=cmd_verify)

    sub.add_parser("oracle", help="exact minimum via branch and bound",
                   parents=[instance, budget]).set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a corpus", parents=[pipeline])
    p.add_argument("instances", nargs="*", help="files or directories")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    sub.add_parser("compare", help="pipeline vs DFS baseline",
                   parents=[instance, pipeline]).set_defaults(func=cmd_compare)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return exc.exit_code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OracleBudgetError, OracleTimeout) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return exc.exit_code
    except InternalContradiction as exc:
        print(f"internal: {exc}", file=sys.stderr)
        cex = getattr(exc, "counterexample", None)
        if isinstance(cex, tuple) and cex and isinstance(cex[0], Graph):
            cex = cex[0]
        if isinstance(cex, Graph):
            # an instance file numbers the vertices 0..n-1
            pos = {v: i for i, v in enumerate(cex.vertices)}
            cex = Graph(range(cex.n), [Edge(e.id, pos[e.u], pos[e.v])
                                       for e in cex.edges()])
            print(format_instance(cex, ["counterexample"]), end="",
                  file=sys.stderr)
        elif cex is not None:
            print(f"counterexample: {cex!r}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
