"""Reduction of arbitrary 2EC instances to structured ones.

`reduce` splits off easy structure (small instances, the blocks at cut
vertices, parallel edges, irrelevant edges, contractible subgraphs,
non-isolating 2-vertex cuts) until what remains is structured, hands that
to the supplied structured-instance solver and stitches the pieces back
together. The result is always a 2EC spanning subgraph, and its size obeys
the alpha bound when the solver does. Every rule runs on one work list, with
no recursion, so long chains of nested cuts keep the stack flat; the 2-cut
stitches (patch edges, dummy edges to drop) run once the list is empty.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from .cover import GUESS_VERTICES
from .errors import InfeasibleError, InternalContradiction
from .graph import (VIRTUAL_BASE, Edge, Graph, _index, _labels, _sub_index,
                    biconnected_blocks, cut_vertices, find_irrelevant_edge,
                    is_2ec, two_vertex_cuts)
from .oracle import find_contractible_subgraph, min_2ecss, opt_type

ALPHA_DEFAULT = Fraction(5, 4)
ALPHA_MIN = Fraction(6, 5)

Solver = Callable[[Graph], FrozenSet[int]]


@dataclass(frozen=True)
class CutPartition:
    u: int
    v: int
    v1: FrozenSet[int]
    v2: FrozenSet[int]


@dataclass
class ReductionTrace:
    """The names of the rules that fired, in order; `dispatch_alg` marks a
    graph handed to the structured solver."""
    steps: List[str] = field(default_factory=list)


def reduce(g: Graph, alpha: Fraction = ALPHA_DEFAULT, alg: Optional[Solver] = None,
           deadline: Optional[float] = None
           ) -> Tuple[FrozenSet[int], ReductionTrace]:
    """Solve g by reduction, dispatching structured remainders to alg.

    Returns (edge ids of a 2EC spanning subgraph of g, trace). Raises
    InfeasibleError when g is not 2EC, and OracleTimeout when an exact
    search (base case, contractibility, typed optimum) runs past
    `deadline`, one `time.monotonic` instant (None means unlimited).
    """
    if alpha < ALPHA_MIN:
        raise ValueError("alpha must be at least 6/5")
    if g.n < 3:
        raise InfeasibleError("need at least 3 vertices")
    if not is_2ec(g):
        raise InfeasibleError("input graph is not 2-edge-connected")
    trace = ReductionTrace()
    sol = _red(g, alpha, alg, deadline, trace)
    if not is_2ec(g.spanning(sol)):
        raise InternalContradiction("reduction output is not 2EC spanning",
                                    counterexample=g)
    return sol, trace


def _small_threshold(alpha: Fraction) -> Fraction:
    # The structured solver guesses a tree on GUESS_VERTICES vertices, so
    # smaller graphs are solved exactly; that bites only for alpha > 11/7.
    return max(Fraction(4) / (alpha - 1), Fraction(GUESS_VERTICES - 1))


def _red(g: Graph, alpha: Fraction, alg: Optional[Solver],
         deadline: Optional[float], trace: ReductionTrace) -> FrozenSet[int]:
    # A work list: each rule replaces the graph it pops by smaller ones or
    # adds edges to `kept`. one_cut pushes every block at once, one step per
    # block after the first (every cycle lies in one block; blocks drop only
    # loops, which no minimum keeps). A 2-cut pushes its sides and records a
    # stitch (its graph, patch limit, dummy ids); the stitches run after the
    # loop, latest first. Blocks, contractions and cut sides share no edge
    # id, so kept ∩ E(g) is then what the sides reduced to, and a later
    # stitch lies inside an earlier one's graph. Dummy vertices and edges
    # are numbered above every id of g.
    ids = itertools.count(max([VIRTUAL_BASE - 1, *g.vertices, *g.edge_ids()])
                          + 1)
    kept: Set[int] = set()
    stitches: List[Tuple[Graph, int, FrozenSet[int]]] = []
    todo = [g]
    while todo:
        g = todo.pop()
        if g.n <= _small_threshold(alpha):
            trace.steps.append("brute_force")
            kept |= min_2ecss(g, deadline)
            continue

        if cut_vertices(g):
            blocks = biconnected_blocks(g)
            trace.steps.extend(["one_cut"] * (len(blocks) - 1))
            todo.extend(g.subgraph(es, vs) for vs, es in reversed(blocks))
            continue

        e = _parallel_or_loop(g)
        if e is not None:
            trace.steps.append("parallel_loop")
            todo.append(g.without_edges([e.id]))
            continue

        # One cut scan per round serves the irrelevant and 2-cut rules.
        # Dropping every edge at a listed cut at once reaches the graph and
        # count that dropping the smallest one per round does: a cut stays a
        # cut without e (g - e - {a, b} is within g - {a, b}); g is simple
        # and 2-connected here and stays so without uv at a cut {u, v} (each
        # side still joins u and v), so no earlier rule fires in between and
        # the closure does not depend on the order.
        cuts = two_vertex_cuts(g)
        irrelevant = find_irrelevant_edge(g, cuts)
        if irrelevant is not None:
            trace.steps.extend(["irrelevant"] * len(irrelevant))
            todo.append(g.without_edges(irrelevant))
            continue

        h = find_contractible_subgraph(g, alpha, deadline)
        if h is not None:
            trace.steps.append("contract")
            kept |= h.edge_set()
            todo.append(g.contract(h.vertices)[0])
            continue

        # the smallest pair, as cuts come in lexicographic order
        pair = next((pair for pair, kind in cuts if kind == "non_isolating"),
                    None)
        if pair is not None:
            kept |= _split_two_cut(g, partition_non_isolating(g, *pair),
                                   alpha, deadline, trace, ids, todo, stitches)
            continue

        if alg is None:
            raise InternalContradiction(
                "structured instance but no solver given", counterexample=g)
        trace.steps.append("dispatch_alg")
        sol = alg(g)
        if not is_2ec(g.spanning(sol)):
            raise InternalContradiction("structured solver output not 2EC",
                                        counterexample=g)
        kept |= sol
    for g, limit, dummies in reversed(stitches):
        if not limit and not dummies <= kept:
            raise InternalContradiction("dummy edges missing from sub-solution",
                                        counterexample=g)
        kept -= dummies
        if limit:
            kept |= _min_patch(g, frozenset(kept & g.edge_set()), limit)
    return frozenset(kept)


def _parallel_or_loop(g: Graph) -> Optional[Edge]:
    """Smallest-id loop, or smallest-id edge duplicating a lower-id edge."""
    seen: Set[Tuple[int, int]] = set()
    for e in g.edges():
        if e.is_loop():
            return e
        key = (min(e.u, e.v), max(e.u, e.v))
        if key in seen:
            return e
        seen.add(key)
    return None


def partition_non_isolating(g: Graph, u: int, v: int) -> CutPartition:
    """Split V - {u,v} into two edge-disjoint sides of size >= 2 each.

    The components of g - {u, v} are labelled on the rows of g's `_index`
    left after u and v, with no graph built."""
    if g.n < 6:
        raise ValueError("need at least 6 vertices")
    vs = g.vertices
    keep = [i for i, x in enumerate(vs) if x != u and x != v]
    label = _labels(_sub_index(_index(g), keep), [True] * g.m)
    comps: List[List[int]] = [[] for _ in range(max(label, default=-1) + 1)]
    for i, c in zip(keep, label):
        comps[c].append(vs[i])
    comps.sort(key=lambda c: (len(c), c[0]))
    k = len(comps)
    if k < 2 or (k == 2 and len(comps[0]) < 2):
        raise ValueError(f"{{{u},{v}}} is not a non-isolating 2-vertex cut")
    if k == 2:
        a, b = set(comps[0]), set(comps[1])
    elif k == 3:
        a, b = set(comps[0]) | set(comps[1]), set(comps[2])
    else:
        a = set(comps[0]) | set(comps[1])
        b = set().union(*comps[2:])
    if len(a) > len(b):
        a, b = b, a
    assert 2 <= len(a) <= len(b)
    return CutPartition(u, v, frozenset(a), frozenset(b))


def _split_two_cut(g: Graph, cut: CutPartition, alpha: Fraction,
                   deadline: Optional[float], trace: ReductionTrace,
                   ids: Iterator[int], todo: List[Graph],
                   stitches: List[Tuple[Graph, int, FrozenSet[int]]]
                   ) -> FrozenSet[int]:
    """One of the three branches at a non-isolating cut: returns the edges
    kept outright, pushes the sides left to reduce (the first one last) and
    records the stitch that finishes the cut once they are reduced."""
    u, v = cut.u, cut.v
    g1 = g.induced(cut.v1 | {u, v})
    g2 = g.induced(cut.v2 | {u, v})
    contract_thr = Fraction(2) / (alpha - 1)

    if g2.n <= _small_threshold(alpha):
        trace.steps.append("brute_force")
        return _opt_via_types(g, g1, g2, u, v, deadline)

    if g1.n > contract_thr:
        trace.steps.append("two_cut_both_big")
        stitches.append((g, 2, frozenset()))
        todo.extend(gi.contract({u, v})[0] for gi in (g2, g1))
        return frozenset()

    # one index of g serves both complement checks
    nb = _index(g)
    opt_1b = opt_type(g1, u, v, "B", g_full=g, deadline=deadline,
                      full_index=nb)
    opt_1c = opt_type(g1, u, v, "C", g_full=g, deadline=deadline,
                      full_index=nb)

    if opt_1c is not None and (opt_1b is None or len(opt_1c) <= len(opt_1b) - 1):
        eid = next(ids)
        trace.steps.append("two_cut_type_C")
        stitches.append((g, 1, frozenset([eid])))
        todo.append(g2.with_edges([Edge(eid, u, v)]))
        return opt_1c

    if opt_1b is None:
        raise InternalContradiction("no type-B side at a non-isolating cut",
                                    counterexample=g)
    w = next(ids)
    e1, e2 = next(ids), next(ids)
    trace.steps.append("two_cut_type_AB")
    stitches.append((g, 0, frozenset([e1, e2])))
    todo.append(g2.with_edges([Edge(e1, u, w), Edge(e2, v, w)],
                              extra_vertices=[w]))
    return opt_1b


def _min_patch(g: Graph, s: FrozenSet[int], limit: int) -> FrozenSet[int]:
    """Smallest F (|F| <= limit) with s ∪ F 2EC spanning; id order ties."""
    if is_2ec(g.spanning(s)):
        return frozenset()
    rest = [i for i in g.edge_ids() if i not in s]
    for f in rest:
        if is_2ec(g.spanning(s | {f})):
            return frozenset([f])
    if limit >= 2:
        for fa, fb in itertools.combinations(rest, 2):
            if is_2ec(g.spanning(s | {fa, fb})):
                return frozenset([fa, fb])
    raise InternalContradiction("no small patch restores 2-edge-connectivity",
                                counterexample=g)


# Type combinations a solution can induce on the two sides of the cut: a
# type-C side forces a type-A complement, everything else pairs A/B freely.
_TYPE_COMBOS = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"),
                ("A", "C"), ("C", "A"))


def _opt_via_types(g: Graph, g1: Graph, g2: Graph, u: int, v: int,
                   deadline: Optional[float]) -> FrozenSet[int]:
    """Exact optimum of g decomposed across the cut {u, v}.

    Both sides stay at or below the brute-force size, so the per-side typed
    optima are affordable even when the combined graph is not.
    """
    optima: Dict[Tuple[int, str], Optional[FrozenSet[int]]] = {}

    def typed(side: int, t: str) -> Optional[FrozenSet[int]]:
        # each (side, type) optimum is searched once, on first use
        if (side, t) not in optima:
            optima[side, t] = opt_type((g1, g2)[side], u, v, t,
                                       deadline=deadline)
        return optima[side, t]

    best: Optional[Tuple[int, List[int]]] = None
    for t1, t2 in _TYPE_COMBOS:
        r1 = typed(0, t1)
        if r1 is None:
            continue
        r2 = typed(1, t2)
        if r2 is None:
            continue
        cand = sorted(r1 | r2)
        key = (len(cand), cand)
        if best is None or key < best:
            best = key
    if best is None:
        raise InternalContradiction("no compatible type pair across the cut",
                                    counterexample=g)
    sol = frozenset(best[1])
    if not is_2ec(g.spanning(sol)):
        raise InternalContradiction("typed decomposition produced a non-2EC "
                                    "solution", counterexample=g)
    return sol

