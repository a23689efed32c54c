#!/usr/bin/env python3
"""twoec benchmark: solve generated workloads, check every output, time it.

    python3 perfbench/run.py --workload dense_contract --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the solver is imported from ./src. One
process, no threads. A run builds the workload's fixed pool of inputs, then
makes passes over it, each in an order drawn from --seed (see workloads.py),
until --seconds have gone by; the first pass is always completed. Every
operation is `harness.solve` (plus `harness.report_with_opt` on
exact_oracle) followed by `harness.verify`, and is checked. Between
operations, about every REF_EVERY_S seconds, the run times the calibration
loop of reference.py; timing metrics are operation time over the loop's
mean time (unit "ref"), which the shared machine's speed drifts move far
less than raw wall time. The last line of standard output is one JSON
object:

  --trace 0  end-to-end metrics, measured with nothing wrapped
  --trace 1  per-layer metrics: passes alternate untraced and traced, and
             the traced passes wrap each module's public functions
             (tracer.py); spans go to .perfbench/ at the end

Lines before it give the environment, raw wall-time figures, the
per-workload extras (failure fraction, solution digest, oracle time and
ratio on exact_oracle) and the workload check.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
# set-up (import of twoec, then the build of the pool) is timed this many
# times and setup_s comes from the median; between operations, it is timed
# again when SETUP_EVERY_S seconds have gone by since it was last timed
SETUP_REPS = 21
SETUP_EVERY_S = 1.25
MAX_PASSES = 32
# an untraced run always completes these passes; solution_edges and the
# digest cover exactly them, so they do not depend on the machine's speed
FIXED_PASSES = 1
# the reference loop is timed before an operation when this many seconds
# have gone by since it was last timed
REF_EVERY_S = 0.1
# setup_s is given in seconds of a machine on which the reference loop takes
# this long, about its time on a 2-vCPU x86-64 KVM guest; raw seconds moved
# by 2x with the shared machine's speed
REF_NOMINAL_S = 0.005

# layers whose span encloses a whole solve; left out of the busiest-layer check
ENCLOSING = ("harness.solve", "reduction.reduce")
REDUCTION_RULES = ("brute_force", "one_cut", "parallel_loop", "irrelevant",
                   "contract", "two_cut_both_big", "two_cut_type_C",
                   "two_cut_type_AB", "dispatch_alg")
GLUE_RULES = ("adjacent_merge", "short_cycle_merge", "cycle_merge",
              "double_edge_merge", "long_cycle_merge", "degenerate_rewire",
              "pendant_pair_rewire")


def environment() -> Dict[str, object]:
    try:
        import networkx
        nx_version: Optional[str] = networkx.__version__
    except ImportError:
        nx_version = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "networkx": nx_version}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Op:
    """The outcome of one operation on one instance."""

    def __init__(self, inst, row: int):
        self.inst = inst
        self.row = row  # which pass over the pool it came from
        # the whole operation, then its solve and exact-optimum parts
        self.op_s = self.solve_s = self.oracle_s = 0.0
        self.size = 0
        self.solution: List[int] = []
        self.opt: Optional[int] = inst.opt
        self.report: Dict[str, object] = {}
        self.problem: Optional[str] = None


def run_op(harness, inst, row: int, with_opt: bool, want_trace: bool,
           parse: bool) -> Op:
    op = Op(inst, row)
    t0 = perf_counter()
    try:
        g = harness.parse_instance(inst.text) if parse else inst.graph
        t1 = perf_counter()
        sol, rep = harness.solve(g, want_trace=want_trace)
        t2 = perf_counter()
        if with_opt:
            rep = harness.report_with_opt(g, rep)
            op.opt = int(rep["opt"])
        t3 = perf_counter()
        ver = harness.verify(g, sol)
        op.op_s = perf_counter() - t0
        op.solve_s, op.oracle_s = t2 - t1, t3 - t2
    except Exception as exc:  # every failure is counted, none is fatal
        op.problem = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
        return op
    op.report = rep
    op.solution = sorted(sol)
    op.size = len(op.solution)
    n = inst.graph.n
    if ver["status"] != "OK":
        op.problem = f"verify: {ver}"
    elif rep["solution"] != op.solution or rep["size"] != op.size:
        op.problem = "report does not match the returned solution"
    elif op.size < n:
        op.problem = f"{op.size} edges cannot make {n} vertices 2EC"
    elif op.opt is not None and op.size < op.opt:
        op.problem = f"size {op.size} below the optimum {op.opt}"
    elif op.opt is not None and op.size > (5 * op.opt) // 4:
        op.problem = f"size {op.size} above floor(5*{op.opt}/4)"
    return op


def _twoec_modules() -> List[str]:
    return [m for m in sys.modules
            if m == "workloads" or m.split(".")[0] == "twoec"]


def time_setup(workload: str, seed: int, pool: str) -> float:
    """Seconds to import twoec afresh and build the pool. The modules in
    use are put back afterwards, and the fresh copies are freed at once so
    that they do not raise the run's peak memory."""
    saved = {m: sys.modules.pop(m) for m in _twoec_modules()}
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    workloads.build(workload, seed, MAX_PASSES, pool)
    dt = perf_counter() - t0
    for m in _twoec_modules():
        del sys.modules[m]
    sys.modules.update(saved)
    gc.collect()
    return dt


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", default="main",
                    help="input pool: main, or holdout to check a gain")
    args = ap.parse_args(argv)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if env["networkx"] is None:
        print("error: networkx is not importable. Without it "
              "twoec.oracle._max_2matching_size returns 0, the lower bound "
              "becomes 2n, and min_2ecss raises twoec.oracle._NoSolution on "
              "every instance; no timings are reported.", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    try:
        from twoec import harness
    except ImportError as exc:
        print(f"error: cannot import twoec from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: twoec was imported from {harness.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.pool not in workloads.POOL_KEYS:
        print(f"error: unknown pool {args.pool!r}; choose from "
              f"{list(workloads.POOL_KEYS)}", file=sys.stderr)
        return 2
    with_opt = args.workload == "exact_oracle"

    passes = workloads.build(args.workload, args.seed, MAX_PASSES, args.pool)
    # set-up is timed again all through the run, so that its median spans
    # the run's changes of machine speed as the operations' times do
    setup_times = [perf_counter() - t0]
    last_setup = perf_counter()
    import reference
    import tracer as tracing

    tr = tracing.Tracer() if args.trace else None
    ops: List[Op] = []
    untraced: List[Op] = []
    refs = [reference.sample()]
    last_ref = perf_counter()
    traced_s = untraced_s = 0.0
    n_traced = 0
    start = perf_counter()
    p = 0
    stop = False
    while not stop:
        # in a traced run each pass is solved untraced, then traced again
        r = p // 2 if tr is not None else p
        row = passes[r % MAX_PASSES]
        traced = tr is not None and p % 2 == 1
        if traced:
            tr.install()
        try:
            for i, inst in enumerate(row):
                # an untraced run stops at --seconds, once its first
                # FIXED_PASSES passes are done
                if tr is None and p >= FIXED_PASSES and \
                        perf_counter() - start >= args.seconds:
                    stop = True
                    break
                if perf_counter() - last_ref >= REF_EVERY_S:
                    refs.append(reference.sample())
                    last_ref = perf_counter()
                if tr is None and len(setup_times) < SETUP_REPS and \
                        perf_counter() - last_setup >= SETUP_EVERY_S:
                    setup_times.append(time_setup(args.workload, args.seed,
                                                  args.pool))
                    last_setup = perf_counter()
                if tr is not None:
                    tr.instance = p * len(row) + i
                op = run_op(harness, inst, r, with_opt, want_trace=traced,
                            parse=tr is not None)
                ops.append(op)
                if traced:
                    traced_s += op.op_s
                else:
                    untraced.append(op)
                    untraced_s += op.op_s
        finally:
            if traced:
                tr.uninstall()
        n_traced += traced
        p += 1
        # a traced run stops before the next pair of passes if it would
        # likely end after --seconds
        if tr is not None and p % 2 == 0:
            elapsed = perf_counter() - start
            stop = elapsed * (1 + 2 / p) >= args.seconds
    run_wall = perf_counter() - start
    while tr is None and len(setup_times) < SETUP_REPS:
        setup_times.append(time_setup(args.workload, args.seed, args.pool))

    failed = [op for op in ops if op.problem is not None]
    for op in failed[:5]:
        print(f"FAILED pass {op.row} {op.inst.shape}: {op.problem}",
              file=sys.stderr)
    ok = [op for op in untraced if op.problem is None]
    counted = [op for op in untraced if op.row < FIXED_PASSES]
    # sorted, so that the seed's order of the pool does not change it
    digest = hashlib.sha256(json.dumps(sorted(
        [op.inst.key, op.solution] for op in counted)).encode()).hexdigest()
    ref_s = statistics.fmean(refs)
    print(f"workload: {args.workload} seed={args.seed} pool={args.pool} "
          f"trace={args.trace} "
          f"passes={len(ops) / len(passes[0]):.2f} pool_size={len(passes[0])} "
          f"ops={len(ops)} "
          f"wall_s={run_wall:.3f}")
    print(f"failed_frac: {len(failed)}/{len(ops)} = "
          f"{len(failed) / len(ops):.6g} ratio")
    print(f"solutions_digest: {digest} ({len(counted)} instances, "
          f"the first pass over the pool)")
    print(f"reference_s: mean={ref_s:.6g} min={min(refs):.6g} "
          f"max={max(refs):.6g} n={len(refs)} s")
    setup_raw = statistics.median(setup_times)
    print(f"setup_raw_s: {setup_raw:.6g} s (median of {len(setup_times)}; "
          f"raw wall time)")
    if ok:
        print(f"instances_per_s: {len(ok) / untraced_s:.6g} 1/s "
              f"(untraced operations that passed every check)")
        print(f"solve_s.p50: {statistics.median(op.solve_s for op in ok):.6g}"
              f" s (n={len(ok)})")
    if with_opt and ok:
        print(f"oracle_s.p50: "
              f"{statistics.median(op.oracle_s for op in ok):.6g} s "
              f"(n={len(ok)})")
        right = [op for op in counted if op.problem is None]
        ratio = Fraction(sum(op.size for op in right),
                         sum(op.opt for op in right) or 1)
        print(f"ratio_vs_opt: {ratio} = {float(ratio):.6g} ratio "
              f"(the digest's instances)")
    summ = tr.summary() if tr is not None else None
    check = workload_check(args.workload, ops, summ)
    print(f"workload_check: {args.workload}: {check[0]}: {check[1]}")

    if tr is None:
        metrics = {
            "op_cost.mean": (pool_mean(ok, "op_s") / ref_s, "ref"),
            "solve_cost.mean": (pool_mean(ok, "solve_s") / ref_s, "ref"),
            "setup_s": (setup_raw / ref_s * REF_NOMINAL_S, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "solution_edges": (sum(op.size for op in counted), "count"),
        } if ok else {}
    else:
        metrics = layer_metrics(summ, ops, n_traced, traced_s, untraced_s)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / (f"trace-{args.workload}-{args.pool}"
                          f"-seed{args.seed}.json")
        tr.write(path, {"workload": args.workload, "seed": args.seed,
                        "pool": args.pool,
                        "environment": env, "traced_passes": n_traced,
                        "instances": [op.inst.shape for op in ops]})
        print(f"trace: {len(tr.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def pool_mean(ops: List[Op], attr: str) -> float:
    """The mean over the pool of each instance's mean `attr`: every
    instance counts once, however many passes reached it before the run
    stopped."""
    per: Dict[tuple, List[float]] = {}
    for op in ops:
        per.setdefault(op.inst.key, []).append(getattr(op, attr))
    return statistics.fmean(statistics.fmean(v) for v in per.values())


def layer_metrics(summ, ops: List[Op], n_traced: int, traced_s: float,
                  untraced_s: float) -> Dict[str, tuple]:
    """Per-layer figures, each per traced pass."""
    per = 1 / n_traced
    out: Dict[str, tuple] = {}

    def layer(name: str, *fields: str) -> None:
        row = summ[name]
        for f in fields:
            if f == "hit_ratio":
                ratio = row["hits"] / row["calls"] if row["calls"] else 0.0
                out[f"{name}.hit_ratio"] = (ratio, "ratio")
            elif f == "calls":
                out[f"{name}.calls"] = (row["calls"] * per, "count")
            else:
                out[f"{name}.{f}"] = (row[f] * per, "s")

    layer("oracle.find_contractible_subgraph", "calls", "busy_s", "self_s",
          "hit_ratio")
    out["oracle.find_contractible_subgraph.candidates"] = (
        summ["oracle.min_2ecss.contract"]["calls"] * per, "count")
    layer("oracle.min_inner_edges", "calls", "busy_s")
    for caller in ("base", "contract", "opt"):
        layer(f"oracle.min_2ecss.{caller}", "calls", "busy_s")
    layer("graph.two_vertex_cuts", "calls", "busy_s")
    layer("graph.find_irrelevant_edge", "calls", "busy_s", "hit_ratio")
    layer("graph.cut_vertices", "calls", "busy_s")
    layer("oracle.opt_type", "calls", "busy_s")
    layer("reduction.reduce", "calls", "busy_s", "self_s")
    layer("cover.initial_cover", "calls", "busy_s")
    layer("harness.structured_solver", "calls", "busy_s", "self_s")
    layer("cover.canonicalize", "calls", "busy_s")
    layer("bridge_cover.cover_all", "calls", "busy_s")
    layer("gluing.glue_all", "calls", "busy_s")
    out["gluing.glue_all.moves"] = (
        summ["gluing.glue_all"]["hits"] * per, "count")
    layer("harness.solve", "calls", "busy_s")
    layer("harness.verify", "calls", "busy_s")
    layer("harness.parse_instance", "calls", "busy_s")

    reports = [op.report for op in ops if op.report.get("trace") is not None]
    steps = [s for r in reports for s in r["trace"]["reduction_steps"]]
    glues = [s for r in reports for s in r["trace"]["glue_rules"]]
    for rule in REDUCTION_RULES:
        out[f"reduction.rule.{rule}"] = (steps.count(rule) * per, "count")
    for rule in GLUE_RULES:
        out[f"gluing.rule.{rule}"] = (glues.count(rule) * per, "count")
    out["harness.guesses_tried"] = (
        sum(int(r["guesses_tried"]) for r in reports) * per, "count")
    out["harness.certified_frac"] = (
        sum(1 for r in reports if r["certified"]) / max(1, len(reports)),
        "ratio")
    # operation time of the traced passes over that of the untraced passes
    # on the same inputs, minus one
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return out


def workload_check(workload: str, ops: List[Op], summ) -> tuple:
    """Does the workload stress the layer it is named for? Returns PASS,
    FAIL or SKIPPED (the check needs the traced run), and a message."""
    done = [op for op in ops if op.problem is None]
    if workload == "structured_dispatch":
        missed = sorted({op.inst.shape for op in done
                         if not op.report.get("dispatched")})
        if missed or not done:
            return "FAIL", f"not dispatched: {missed}"
        return "PASS", "every instance reaches harness.structured_solver"
    if summ is None:
        return "SKIPPED", "this check needs the traced run (--trace 1)"
    if workload == "sparse_reduce":
        reports = [op.report for op in done if "trace" in op.report]
        if not reports:
            return "FAIL", "no traced operation passed its checks"
        lengths = [len(r["trace"]["reduction_steps"]) for r in reports]
        dispatched = sum(1 for r in reports if r["dispatched"])
        med = statistics.median(lengths)
        ok = med >= 10 and dispatched <= len(reports) // 10
        return ("PASS" if ok else "FAIL",
                f"median reduction chain {med} steps (min {min(lengths)}, "
                f"max {max(lengths)}), {dispatched}/{len(reports)} dispatched")
    want = {"dense_contract": "oracle.find_contractible_subgraph",
            "exact_oracle": "oracle.min_2ecss"}[workload]
    busy: Dict[str, float] = {}
    for name, row in summ.items():
        if name in ENCLOSING:
            continue
        key = "oracle.min_2ecss" if name.startswith("oracle.min_2ecss.") and \
            want == "oracle.min_2ecss" else name
        busy[key] = busy.get(key, 0.0) + row["busy_s"]
    top = max(busy, key=busy.get)
    total = summ["harness.solve"]["busy_s"] + \
        summ["oracle.min_2ecss.opt"]["busy_s"]
    return ("PASS" if top == want else "FAIL",
            f"busiest layer {top} ({busy[top]:.3f} s); {want} "
            f"{busy.get(want, 0.0):.3f} s of {total:.3f} s traced "
            f"solve+oracle time")


if __name__ == "__main__":
    sys.exit(main())
