"""Pipeline orchestration, instance files, generators, and run reports.

The solver proper is `solve`: it parses nothing and prints nothing, it
takes a Graph and returns (edge ids, report dict). The CLI in cli.py is a
thin shell around the functions here.
"""

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .bridge_cover import cover_all
from .cover import canonicalize, enumerate_guesses, initial_cover, pieces
from .errors import InfeasibleError, InternalContradiction, ParseError
from .gluing import glue_all
from .graph import Edge, Graph, bridges, components, is_2ec
from .oracle import min_2ecss
from .reduction import ALPHA_DEFAULT, reduce

# -- instance files --------------------------------------------------------


def parse_instance(text: str) -> Graph:
    """Parse the plain-text edge-list format (header "p n m", lines "e u v").

    Comment lines start with "c". The graph must be simple: duplicate
    edges, loops, out-of-range endpoints, and count mismatches are all
    rejected with ParseError.
    """
    n = m = None
    edges: List[Edge] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: header needs 'p n m'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header")
            if n < 1 or m < 0:
                raise ParseError(f"line {lineno}: bad sizes")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: edge needs 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: endpoint out of range")
            if u == v:
                raise ParseError(f"line {lineno}: loop edge")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add(key)
            edges.append(Edge(len(edges), u, v))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ParseError("missing header")
    if len(edges) != m:
        raise ParseError(f"header says {m} edges, found {len(edges)}")
    return Graph(range(n), edges)


def format_instance(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.n} {g.m}")
    for e in g.edges():
        lines.append(f"e {e.u} {e.v}")
    return "\n".join(lines) + "\n"


def instance_hash(g: Graph) -> str:
    return hashlib.sha256(format_instance(g).encode()).hexdigest()[:16]


# -- generators ------------------------------------------------------------

FAMILIES = ("gnp_2ec", "hamiltonian_plus_chords", "cycle_of_cliques",
            "dumbbell", "structured_stress")


def _graph(n: int, pairs: Iterable[Tuple[int, int]]) -> Graph:
    """The simple graph on 0..n-1: loops dropped, repeated pairs merged."""
    uniq = sorted(set((min(u, v), max(u, v)) for u, v in pairs if u != v))
    return Graph(range(n), [Edge(i, u, v) for i, (u, v) in enumerate(uniq)])


def gen_gnp_2ec(n: int, density: float, seed: int,
                max_tries: int = 5000) -> Graph:
    if n < 1:
        raise InfeasibleError("gnp_2ec needs n >= 1")
    rng = random.Random(seed)
    for _ in range(max_tries):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        g = _graph(n, pairs)
        if is_2ec(g):
            return g
    raise InfeasibleError(f"no 2EC G({n},{density}) sample in {max_tries} tries")


def gen_hamiltonian_plus_chords(n: int, chords: int, seed: int) -> Graph:
    if n < 3:
        raise InfeasibleError("hamiltonian_plus_chords needs n >= 3")
    rng = random.Random(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    have = set((min(u, v), max(u, v)) for u, v in pairs)
    tries = 0
    while chords > 0 and tries < 100 * n:
        tries += 1
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key not in have:
            have.add(key)
            chords -= 1
    return _graph(n, have)


def gen_cycle_of_cliques(n: int, seed: int, clique: int = 4) -> Graph:
    if n < 3:
        raise InfeasibleError("cycle_of_cliques needs n >= 3")
    while True:
        rng = random.Random(seed)
        k = max(3, n // clique)
        groups = [list(range(i * clique, min((i + 1) * clique, n)))
                  for i in range(k)]
        groups = [grp for grp in groups if grp]
        leftovers = list(range(len(groups) * clique, n))
        for v in leftovers:
            groups[rng.randrange(len(groups))].append(v)
        pairs = []
        for grp in groups:
            if len(grp) == 1:
                continue
            pairs += [(u, v) for i, u in enumerate(grp) for v in grp[i + 1:]]
        for i, grp in enumerate(groups):
            nxt = groups[(i + 1) % len(groups)]
            pairs.append((rng.choice(grp), rng.choice(nxt)))
        g = _graph(n, pairs)
        if is_2ec(g):
            return g
        # single-vertex groups can break 2EC; retighten with the next seed
        seed += 1


def gen_dumbbell(n: int, seed: int) -> Graph:
    if n < 8:
        raise InfeasibleError("dumbbell needs n >= 8")
    rng = random.Random(seed)
    left = list(range((n - 2) // 2))
    right = list(range(len(left), n - 2))
    u, v = n - 2, n - 1
    pairs = []
    for grp in (left, right):
        pairs += [(a, b) for i, a in enumerate(grp) for b in grp[i + 1:]]
    # two vertex-disjoint paths between the bells make {u, v} a
    # non-isolating 2-cut
    pairs += [(rng.choice(left), u), (u, rng.choice(right)),
              (rng.choice(left), v), (v, rng.choice(right))]
    return _graph(n, pairs)


def gen_structured_stress(n: int, seed: int) -> Graph:
    """An anchor cycle with small-cycle satellites hanging off it.

    Rich in 4/5/6-cycle components under minimum covers, which is what the
    gluing case analysis has to untangle.
    """
    if n < 8:
        raise InfeasibleError("structured_stress needs n >= 8")
    while True:
        rng = random.Random(seed)
        core = max(8, n // 3)
        pairs = [(i, (i + 1) % core) for i in range(core)]
        nxt = core
        while nxt < n:
            size = rng.choice([4, 5, 6])
            size = min(size, n - nxt)
            if size < 3:
                for v in range(nxt, n):
                    a = rng.randrange(core)
                    pairs += [(v, a), (v, (a + 2) % core)]
                nxt = n
                break
            ring = list(range(nxt, nxt + size))
            pairs += [(ring[i], ring[(i + 1) % size]) for i in range(size)]
            hooks = rng.sample(range(core), min(3, rng.randint(2, 3)))
            for i, a in enumerate(sorted(hooks)):
                pairs.append((ring[i % size], a))
            nxt += size
        g = _graph(n, pairs)
        if is_2ec(g):
            return g
        seed += 1


def generate(family: str, n: int, seed: int,
             density: float = 0.3, chords: int = 6) -> Graph:
    if family == "gnp_2ec":
        return gen_gnp_2ec(n, density, seed)
    if family == "hamiltonian_plus_chords":
        return gen_hamiltonian_plus_chords(n, chords, seed)
    if family == "cycle_of_cliques":
        return gen_cycle_of_cliques(n, seed)
    if family == "dumbbell":
        return gen_dumbbell(n, seed)
    if family == "structured_stress":
        return gen_structured_stress(n, seed)
    raise ParseError(f"unknown family {family!r}")


# -- the structured-instance solver ----------------------------------------


@dataclass
class SolveTrace:
    """What the pipeline did, for reports and invariant audits."""
    guesses_tried: int = 0
    certified: bool = True
    glue_rules: List[str] = field(default_factory=list)
    dispatched: int = 0


def _pipeline(g: Graph, h: FrozenSet[int],
              trace: Optional[SolveTrace] = None) -> FrozenSet[int]:
    cov = cover_all(g, canonicalize(g, h))
    final, moves = glue_all(g, cov)
    if trace is not None:
        trace.glue_rules.extend(mv.rule for mv in moves)
    return final


def _has_large_component(g: Graph, h: FrozenSet[int]) -> bool:
    return any(len(p.edges) >= 8 for p in pieces(g, h))


def structured_solver(g: Graph,
                      trace: Optional[SolveTrace] = None,
                      max_guesses: Optional[int] = None,
                      deadline: Optional[float] = None) -> FrozenSet[int]:
    """Solve one structured instance: guessed cover, then canonicalize,
    bridge-cover, and glue; best solution over the guesses.

    A guess is a 7-edge tree forced into the cover so that the cover has a
    component on at least 8 vertices. When the unconstrained minimum cover
    already has a large component no guess is needed, and a guess whose
    constrained cover matches the unconstrained minimum size is already
    best possible, so enumeration stops early.
    """
    if max_guesses is not None and max_guesses < 1:
        raise ValueError(f"max_guesses {max_guesses} is below 1")
    if trace is not None:
        trace.dispatched += 1
    h0 = initial_cover(g, frozenset(), deadline=deadline)
    if _has_large_component(g, h0):
        return _pipeline(g, h0, trace)

    best: Optional[FrozenSet[int]] = None
    tried = 0
    for f in enumerate_guesses(g):
        if max_guesses is not None and tried >= max_guesses:
            if trace is not None:
                trace.certified = False
            break
        tried += 1
        h = initial_cover(g, f, deadline=deadline)
        got = _pipeline(g, h, trace)
        if best is None or (len(got), sorted(got)) < (len(best), sorted(best)):
            best = got
        if len(h) == len(h0):
            # the constrained cover is a global minimum, no better guess exists
            break
        if 4 * (len(best) + 2) <= 5 * len(h0):
            # the ratio certificate already holds against the unconstrained
            # cover lower bound, so no further guess can be needed
            break
    if trace is not None:
        trace.guesses_tried += tried
    if best is None:
        raise InfeasibleError("no guess produced a solution")
    return best


# -- DFS-tree 2-approximation baseline -------------------------------------


def baseline_dfs2(g: Graph) -> FrozenSet[int]:
    """DFS tree plus, per non-root vertex v, the highest back edge leaving
    its subtree. At most 2n - 2 edges; 2EC whenever g is.

    Every non-tree edge joins a vertex to an ancestor, so it leaves the
    subtree of v exactly when its deep end lies in the subtree and its
    upper end lies above v. One bottom-up pass keeps, per vertex, the least
    (depth of upper end, edge id) over the non-tree non-loop edges from
    its subtree; that edge leaves the subtree when any does."""
    if not is_2ec(g):
        raise InfeasibleError("input graph is not 2-edge-connected")
    root = min(g.vertices)
    parent: Dict[int, Tuple[int, int]] = {}   # vertex -> (parent, tree edge)
    depth = {root: 0}
    order: List[int] = [root]
    stack = [(root, iter(g.incident(root)))]
    while stack:
        u, it = stack[-1]
        for e in it:
            w = e.other(u)
            if w not in depth:
                depth[w] = depth[u] + 1
                parent[w] = (u, e.id)
                order.append(w)
                stack.append((w, iter(g.incident(w))))
                break
        else:
            stack.pop()
    tree_ids = {eid for _p, eid in parent.values()}
    best: Dict[int, Tuple[int, int]] = {}
    for e in g.edges():
        if e.id not in tree_ids and not e.is_loop():
            a, b = (e.u, e.v) if depth[e.u] > depth[e.v] else (e.v, e.u)
            if a not in best or (depth[b], e.id) < best[a]:
                best[a] = (depth[b], e.id)
    for v in reversed(order[1:]):
        p = parent[v][0]
        if v in best and (p not in best or best[v] < best[p]):
            best[p] = best[v]
    chosen = set(tree_ids)
    for v in order[1:]:
        if v not in best or best[v][0] >= depth[v]:
            raise InfeasibleError(f"tree edge above {v} is a bridge")
        chosen.add(best[v][1])
    out = frozenset(chosen)
    if not is_2ec(g.spanning(out)):
        raise InternalContradiction("DFS baseline output is not 2EC spanning",
                                    counterexample=g)
    return out


# -- verification and reports ----------------------------------------------


def verify(g: Graph, sol: Iterable[int]) -> Dict[str, object]:
    ids = sorted(set(sol))
    known = set(e.id for e in g.edges())
    bad = [i for i in ids if i not in known]
    if bad:
        return {"status": "UNKNOWN_EDGE", "witness": bad[:5]}
    sub = g.spanning(frozenset(ids))
    touched = set()
    for i in ids:
        e = g.edge(i)
        touched.add(e.u)
        touched.add(e.v)
    missing = sorted(set(g.vertices) - touched)
    if missing:
        return {"status": "SPANNING_FAIL", "witness": missing[:5]}
    comps = components(sub)
    if len(comps) > 1:
        return {"status": "NOT_2EC", "witness": ["disconnected"]}
    br = sorted(bridges(sub))
    if br:
        return {"status": "NOT_2EC", "witness": br[:5]}
    return {"status": "OK", "witness": []}


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def solve(g: Graph,
          alpha: Fraction = ALPHA_DEFAULT,
          seed: Optional[int] = None,
          max_guesses: Optional[int] = None,
          deadline: Optional[float] = None,
          want_trace: bool = False
          ) -> Tuple[FrozenSet[int], Dict[str, object]]:
    """Run the full pipeline and build a run report.

    Raises InfeasibleError when g is not 2EC, ParseError never (parsing is
    the caller's job), InternalContradiction on a violated invariant, and
    OracleTimeout past `deadline` (see `reduce`), which the solve's every
    exact search shares, the structured solver's included.
    """
    tr = SolveTrace()

    def alg(sub: Graph) -> FrozenSet[int]:
        return structured_solver(sub, trace=tr, max_guesses=max_guesses,
                                 deadline=deadline)

    sol, rtrace = reduce(g, alpha=alpha, alg=alg, deadline=deadline)
    ver = verify(g, sol)
    if ver["status"] != "OK":
        raise InternalContradiction(f"solver output failed verification: {ver}",
                                    counterexample=(g, sol))
    # interned: a caller that keeps many reports of one graph holds one copy
    report: Dict[str, object] = {
        "instance": sys.intern(instance_hash(g)),
        "algorithm": "paper54",
        "alpha": sys.intern(_frac(alpha)),
        "n": g.n,
        "m": g.m,
        "solution": sorted(sol),
        "size": len(sol),
        "verdict": ver["status"],
        "certified": tr.certified,
        "dispatched": tr.dispatched,
        "guesses_tried": tr.guesses_tried,
        "seed": seed,
    }
    if want_trace:
        report["trace"] = {
            "reduction_steps": rtrace.steps,
            "glue_rules": tr.glue_rules,
        }
    return sol, report


def report_with_opt(g: Graph, report: Dict[str, object],
                    deadline: Optional[float] = None,
                    vertex_cap: Optional[int] = 16) -> Dict[str, object]:
    """Attach the exact optimum (see `min_2ecss`) and the exact ratio to a
    run report."""
    opt = min_2ecss(g, deadline, vertex_cap)
    report = dict(report)
    report["opt"] = len(opt)
    # interned as in `solve`: a caller that keeps many reports holds one
    # copy of each ratio
    report["ratio"] = sys.intern(_frac(Fraction(int(report["size"]),
                                                len(opt))))
    return report


def report_json(report: Dict[str, object]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
