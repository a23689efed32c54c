"""Reference implementations that only the tests call.

The solver does not run these. They state a property of its inputs or
outputs directly, so the tests can check the solver against them:

- `is_structured`: the structured-instance contract that every graph
  handed to the structured solver must meet.
- `max_tf2matching` and `check_cover_matching_identity`: the duality
  between triangle-free 2-edge covers and triangle-free 2-matchings.
- `is_alpha_contractible`: the definition of an alpha-contractible
  subgraph, tested on one given subgraph.
- `irrelevant_one_at_a_time`: the irrelevant-edge rule as one component
  scan per edge, dropping the smallest-id irrelevant edge per round.
- `min_inner_2ec`: the exact 2EC search as a recursion with one level per
  edge, against which the solver's deepening search is compared.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from twoec.graph import (Edge, Graph, components, cut_vertices,
                         find_irrelevant_edge, is_2ec, is_2vc,
                         two_vertex_cuts)
from twoec.oracle import (OracleBudget, _below, _EdgeArrays,
                          find_contractible_subgraph, min_inner_edges,
                          min_tf2ec)
from twoec.reduction import ALPHA_DEFAULT, _parallel_or_loop


# -- the structured-instance contract --------------------------------------


@dataclass
class StructureReport:
    ok: bool
    reason: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def is_structured(g: Graph, alpha: Fraction = ALPHA_DEFAULT,
                  budget: Optional[OracleBudget] = None) -> StructureReport:
    """Check the full structured-instance contract, cheapest tests first."""
    for e in g.edges():
        if e.is_loop():
            return StructureReport(False, "loop", e)
    p = _parallel_or_loop(g)
    if p is not None:
        return StructureReport(False, "parallel_edge", p)
    if g.n < Fraction(4) / (alpha - 1):
        return StructureReport(False, "too_small", g.n)
    if not is_2vc(g):
        cuts = cut_vertices(g)
        return StructureReport(False, "not_2vc", min(cuts) if cuts else None)
    cuts = two_vertex_cuts(g)
    ir = find_irrelevant_edge(g, cuts)
    if ir is not None:
        return StructureReport(False, "irrelevant_edge", ir)
    for (a, b), kind in cuts:
        if kind == "non_isolating":
            return StructureReport(False, "non_isolating_cut", (a, b))
    h = find_contractible_subgraph(g, alpha, budget)
    if h is not None:
        return StructureReport(False, "contractible_subgraph",
                               tuple(sorted(h.vertices)))
    return StructureReport(True)


# -- maximum triangle-free 2-matching --------------------------------------


def max_tf2matching(g: Graph) -> FrozenSet[int]:
    """Maximum 2-matching of g containing no triangle, exact.

    A 2-matching is an edge set with every degree <= 2; triangle-free means
    no three of its edges form a triangle. Keep-first branch and bound,
    bounded by kept edges plus half the remaining degree room.
    """
    eids = g.edge_ids()
    best: List[List[int]] = [[]]

    def upper_bound(state: Dict[int, int]) -> int:
        kept = sum(1 for s in state.values() if s == 1)
        room = 0
        for v in g.vertices:
            kv = sum(1 for e in g.incident(v) if state[e.id] == 1)
            av = sum(1 for e in g.incident(v) if state[e.id] == 0)
            room += min(max(0, 2 - kv), av)
        undecided = sum(1 for s in state.values() if s == 0)
        return kept + min(undecided, room // 2)

    def ok_to_keep(state: Dict[int, int], eid: int) -> bool:
        e = g.edge(eid)
        if e.is_loop():
            return False
        for v in (e.u, e.v):
            if sum(1 for x in g.incident(v) if state[x.id] == 1) >= 2:
                return False
        # no triangle among kept edges
        ku = {x.other(e.u) for x in g.incident(e.u) if state[x.id] == 1}
        kv = {x.other(e.v) for x in g.incident(e.v) if state[x.id] == 1}
        return not (ku & kv)

    def dfs(state: Dict[int, int], idx: int) -> None:
        kept = sorted(eid for eid, s in state.items() if s == 1)
        if len(kept) > len(best[0]) or \
                (len(kept) == len(best[0]) and kept < best[0]):
            best[0] = kept
        if idx == len(eids):
            return
        if upper_bound(state) < len(best[0]):
            return
        eid = eids[idx]
        if ok_to_keep(state, eid):
            child = dict(state)
            child[eid] = 1
            dfs(child, idx + 1)
        child = dict(state)
        child[eid] = -1
        dfs(child, idx + 1)

    dfs({eid: 0 for eid in eids}, 0)
    return frozenset(best[0])


def check_cover_matching_identity(g: Graph) -> bool:
    """|min tf 2-edge cover| == 2|V| - |max tf 2-matching| on g."""
    h = min_tf2ec(g)
    m = max_tf2matching(g)
    return len(h) == 2 * g.n - len(m)


# -- contractibility -------------------------------------------------------


def is_alpha_contractible(g: Graph, c: Graph, alpha: Fraction) -> bool:
    """True iff every 2EC spanning subgraph of g keeps >= |E(c)|/alpha edges
    of g[V(c)].

    Computed as: no edge set H' ⊆ E(g[V(c)]) with |H'| < |E(c)|/alpha makes
    (g − E(g[V(c)])) ∪ H' 2EC spanning. c must itself be 2EC.
    """
    if not is_2ec(c):
        return False
    w = set(c.vertices)
    inner = [e.id for e in g.edges() if e.u in w and e.v in w]
    cap = _below(c.m, alpha)
    if cap < 0:
        return True
    return min_inner_edges(g, inner, cap) is None


# -- the irrelevant-edge rule, one edge at a time ----------------------------


def smallest_irrelevant_edge(g: Graph) -> Optional[Edge]:
    """Smallest-id edge uv such that {u,v} is a 2-vertex cut."""
    for e in g.edges():
        if e.is_loop():
            continue
        rest = g.without_vertices((e.u, e.v))
        if rest.n > 0 and len(components(rest)) > 1:
            return e
    return None


def irrelevant_one_at_a_time(g: Graph) -> List[Graph]:
    """The graphs the irrelevant rule passes through when each round drops
    the smallest-id irrelevant edge, from g to the first graph with none."""
    out = [g]
    e = smallest_irrelevant_edge(g)
    while e is not None:
        out.append(out[-1].without_edges([e.id]))
        e = smallest_irrelevant_edge(out[-1])
    return out


# -- the exact 2EC search, one recursion level per edge ----------------------


def min_inner_2ec(g: Graph, free: FrozenSet[int], inner: Sequence[int],
                  cap: Optional[int],
                  accept: Optional[Callable[[List[int]], bool]] = None
                  ) -> Optional[Tuple[int, FrozenSet[int]]]:
    """Keep a subset of `inner` so free ∪ kept is 2EC spanning, minimizing
    |kept|, at most cap of them when cap is given; (count, kept) or None.
    Iterative deepening on the kept count, with a keep-first DFS per
    target that decides the inner edges in ascending id order, one
    recursion level each, so the first hit is the lexicographically
    smallest witness of the optimum. With `accept`, a leaf counts only if
    accept(kept edge ids) also holds.
    """
    arr = _EdgeArrays(g)
    if not arr.is_2ec_now():
        return None
    asc = [arr.pos[eid] for eid in sorted(inner)]
    n_free = g.m - len(inner)

    # Committed degrees: free edges plus kept edges. The bound sum tracks
    # sum_v max(2, cd[v]), a floor on twice the final committed edge count
    # (every vertex ends with degree >= 2 when the graph is spanning).
    cd = [0] * arr.n
    inner_pos = set(asc)
    for i in range(len(arr.eids)):
        if i not in inner_pos:
            cd[arr.eu[i]] += 1
            cd[arr.ev[i]] += 1
    floor2 = 2 if arr.n >= 2 else 0
    bsum = sum(max(floor2, d) for d in cd)
    lb = max(0, (bsum + 1) // 2 - n_free)
    kept: List[int] = []

    def dfs(idx: int, k: int) -> bool:
        nonlocal bsum
        if len(kept) > k or (bsum + 1) // 2 > n_free + k:
            return False
        if idx == len(asc):
            # free ∪ kept is the availability graph, 2EC on entry and
            # after every remove
            return len(kept) == k and (
                accept is None or accept([arr.eids[i] for i in kept]))
        if len(kept) + (len(asc) - idx) < k:
            return False
        i = asc[idx]
        kept.append(i)
        delta = 0
        for v in (arr.eu[i], arr.ev[i]):
            if cd[v] >= floor2:
                delta += 1
            cd[v] += 1
        bsum += delta
        if dfs(idx + 1, k):
            return True
        bsum -= delta
        cd[arr.eu[i]] -= 1
        cd[arr.ev[i]] -= 1
        kept.pop()
        # remove branch: the availability graph must stay 2EC
        arr.remove(i)
        ok = (arr.n < 2 or (arr.deg[arr.eu[i]] >= 2
                            and arr.deg[arr.ev[i]] >= 2)) \
            and arr.is_2ec_now() and dfs(idx + 1, k)
        if not ok:
            arr.restore(i)
        return ok

    hi = len(inner) if cap is None else cap
    for k in range(lb, hi + 1):
        if dfs(0, k):
            return k, frozenset(arr.eids[i] for i in kept)
    return None
