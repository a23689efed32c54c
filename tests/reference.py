"""Reference implementations that only the tests call.

The solver does not run these. They state a property of its inputs or
outputs directly, so the tests can check the solver against them:

- `is_structured`: the structured-instance contract that every graph
  handed to the structured solver must meet.
- `max_tf2matching` and `check_cover_matching_identity`: the duality
  between triangle-free 2-edge covers and triangle-free 2-matchings.
- `subdivided_cover`: the minimum triangle-free 2-edge cover containing a
  guess, computed by subdividing each guessed edge with a dummy vertex of
  degree 2 and covering the subdivided graph unconstrained; the solver's
  `cover.initial_cover` forces the guess inside `min_tf2ec` and must
  return the same edge set.
- `is_alpha_contractible`: the definition of an alpha-contractible
  subgraph, tested on one given subgraph.
- `contractible_by_scan` and `two_ends_each`: the contractibility search
  as a scan of every set `connected_subsets` yields through the two-ends
  filter, which the solver's search must match set for set and in order.
- `two_ended_sets`: the set search of the contractibility test on
  frozensets and tuples of vertex ids; the solver's `_two_ended_sets` runs
  it on bitmasks of vertex positions and must make the same sets and the
  same number of nodes per anchor.
- `irrelevant_one_at_a_time`: the irrelevant-edge rule as one component
  scan per edge, dropping the smallest-id irrelevant edge per round.
- `partition_by_graphs`: the sides of a non-isolating 2-vertex cut read
  off the components of a built g - {u, v}; the solver's
  `partition_non_isolating` labels them on g's `_index` rows.
- `min_inner_2ec`: the exact 2EC search as a recursion with one level per
  edge, against which the solver's deepening search is compared. Its
  bridge test, `BridgeArrays.is_2ec_now`, is a lowpoint DFS of its own on
  edge positions that stops at the first bridge, so the search is not
  checked against the solver's `graph._blocks`.
- `_with_uv`: a graph plus k virtual u–v edges, built as a `Graph`; the
  solver's `oracle._EdgeArrays` appends them to a side's arrays and must
  give the arrays of this graph.
- `classify_type`: the type A, B or C of a spanning subgraph at a 2-cut
  pair, read off three 2EC tests.
- `opt_typed_by_graphs`: the typed optimum of a cut side as the exact
  search with a built graph tested at each leaf and no type-C refutation
  before it; the solver's `opt_type` tests its leaves on the search's
  arrays and must return the same edge set.
- `reachable`: the bridge-cover tree nodes joined to a node set by an
  augmenting path.
- `baseline_dfs2`: the DFS baseline with one scan over every back edge per
  vertex, against which the solver's one bottom-up pass is compared.
- `biconnected_blocks`, `two_vertex_cuts` and `two_ec_blocks`: the block
  DFS on vertex ids and `Edge` objects, with an edge stack, the cut scan
  that runs it on a built g - u for every u of any graph, and the 2EC
  blocks as one induced subgraph per component of g less its bridges;
  the solver's `biconnected_blocks` runs one DFS on integer positions,
  its `two_vertex_cuts` one per branch vertex of a 2-connected graph,
  and both must give equal lists, and `cover.pieces` must give each
  component's `two_ec_blocks`.
- `credits` and `cost`: the credit ledger of a cover, one entry per
  component, 2EC block and bridge, read off `two_ec_blocks` of each
  component; `cover.cover_cost` must give the same total.
- `component_graph`: a cover's components found by their own search and
  contracted; the glue step's `gluing.component_graph`, built from
  `cover.pieces`, must give the same contraction and node maps.
- `guesses_by_recursion`: the structured solver's guess trees, each vertex
  set's trees made by a recursion that includes an edge before it skips
  it and rebuilds a union-find at every node; `cover.enumerate_guesses`,
  which filters `itertools.combinations` of the edges, must yield the
  same sequence.
- `hamiltonian_path_by_popcount`: the Hamiltonian path DP over masks
  sorted by popcount, with a parent per (mask, last vertex);
  `graph.hamiltonian_path`, one ascending pass and a walk back, must
  return the same path or None.
- `anchored_cycle`: the glue step's cycle through two components, with
  each gate built by its own copy of the code and four cases for each end
  of each edge; `gluing._anchored_cycle`, one gate builder for both ends
  and one placement rule per edge end, must return the same edge ids and
  attachments, or None.
- `arc_keeping`: a cycle arc of the contraction, walked one component at
  a time from its start to its end; `gluing._arc_keeping` reads it off the
  cycle's walk order by index and must return the same edge ids.
- `branch_partition`: the bridge-cover tree's branches off a longest
  path, found as the components of the tree less the path, each with a
  scan of every tree edge; `bridge_cover._branch_partition`, one
  breadth-first search from the whole path, must give the same groups.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from twoec import oracle
from twoec.bridge_cover import TcTree, _reach_paths
from twoec.errors import InfeasibleError, InternalContradiction
from twoec.gluing import (ComponentGraph, GlueContext, _cycle_edge_between,
                          _cycle_sequence)
from twoec.graph import (VIRTUAL_BASE, Edge, FlowNet, Graph, components,
                         connected_subsets, cut_vertices,
                         find_irrelevant_edge, is_2ec, is_2vc)
from twoec.graph import two_vertex_cuts as solver_two_vertex_cuts
from twoec.oracle import (_below, _Certificates, _EdgeArrays,
                          find_contractible_subgraph, min_inner_edges,
                          min_tf2ec)
from twoec.reduction import ALPHA_DEFAULT, CutPartition, _parallel_or_loop


# -- the structured-instance contract --------------------------------------


@dataclass
class StructureReport:
    ok: bool
    reason: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def is_structured(g: Graph, alpha: Fraction = ALPHA_DEFAULT) -> StructureReport:
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
    cuts = solver_two_vertex_cuts(g)
    ir = find_irrelevant_edge(g, cuts)
    if ir is not None:
        return StructureReport(False, "irrelevant_edge", ir)
    for (a, b), kind in cuts:
        if kind == "non_isolating":
            return StructureReport(False, "non_isolating_cut", (a, b))
    h = find_contractible_subgraph(g, alpha)
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


def subdivided_cover(g: Graph, f: FrozenSet[int]) -> FrozenSet[int]:
    """Minimum triangle-free 2-edge cover of g containing the guess f.

    Each guessed edge ab is subdivided into a-c-b with a fresh dummy c; the
    dummy's two edges are forced into any cover by its degree, so the
    unconstrained minimum of the subdivided graph maps back to the
    constrained minimum of g.
    """
    # the instance may already carry virtual edge ids, so dummy ids must
    # start strictly above everything present
    nid = max(VIRTUAL_BASE, 1 + max((e.id for e in g.edges()), default=0))
    vbase = 1 + max(g.vertices)
    extra: List[Edge] = []
    for k, eid in enumerate(sorted(f)):
        e = g.edge(eid)
        c = vbase + k
        extra += [Edge(nid + 2 * k, e.u, c), Edge(nid + 2 * k + 1, c, e.v)]
    gp = g.without_edges(f).with_edges(extra, range(vbase, vbase + len(f)))
    hp = min_tf2ec(gp)
    dummy = {e.id for e in extra}
    assert dummy <= hp, "dummy edge missing from cover"
    return (hp - dummy) | f


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


def two_ends_each(w: FrozenSet[int], far: Dict[int, List[int]]) -> bool:
    """Does every vertex of w have at least two entries of `far` in w?"""
    for v in w:
        ends = 0
        for x in far[v]:
            if x in w:
                ends += 1
                if ends == 2:
                    break
        else:
            return False
    return True


def two_ended_sets(g: Graph, kmax: int
                   ) -> Iterator[Tuple[int, List[FrozenSet[int]], int]]:
    """The solver's `_two_ended_sets` on frozensets and tuples of vertex
    ids, with no budget or deadline: for each anchor v, ascending, v, the
    connected sets W with min(W) = v and 3 <= |W| <= kmax that pass
    `two_ends_each`, and the number of search nodes the anchor made. A node
    (W, members that may lack two ends in W, banned) branches on the far
    ends of W's first deficient member, in edge order, or on W's boundary,
    ascending, when none is deficient. The node count depends on that
    order (the sets do not), so it is not W's iteration order, which the
    hash layout of the frozenset fixes."""
    far = {v: [e.other(v) for e in g.incident(v) if not e.is_loop()]
           for v in g.vertices}
    for v in g.vertices:
        found: List[FrozenSet[int]] = []
        nodes = 0
        stack = [(frozenset((v,)), (v,), frozenset())]
        while stack:
            w, short, banned = stack.pop()
            nodes += 1
            while short and sum(map(w.__contains__, far[short[0]])) >= 2:
                short = short[1:]
            if not short and len(w) >= 3:
                found.append(w)
            if len(w) == kmax:
                continue
            ends = far[short[0]] if short else sorted(
                {y for x in w for y in far[x]})
            cands = [y for y in dict.fromkeys(ends)
                     if y > v and y not in w and y not in banned]
            for i, c in enumerate(cands):
                stack.append((w | {c}, short + (c,), banned.union(cands[:i])))
        yield v, found, nodes


def contractible_by_scan(g: Graph, alpha: Fraction) -> Optional[Graph]:
    """`find_contractible_subgraph` as a scan of every connected set, with no
    budget: each set that `connected_subsets` yields goes through the
    two-ends filter, then the certificate pool and the exact test as the
    solver's search runs them. It calls `min_2ecss` and `min_inner_edges`
    through the `oracle` module, so a test can record both searches."""
    kmax = math.floor(Fraction(2) / (alpha - 1))
    if kmax < 3:
        return None
    far = {v: [e.other(v) for e in g.incident(v) if not e.is_loop()]
           for v in g.vertices}
    certs: Optional[_Certificates] = None
    for w in connected_subsets(g, kmax):
        if len(w) < 3 or not two_ends_each(w, far):
            continue
        if certs is None:
            certs = _Certificates(g, None)
        if certs.refute(w, _below(len(w), alpha)):
            continue
        sub = g.induced(w)
        if not is_2ec(sub):
            continue
        c_edges = oracle.min_2ecss(sub)
        cap = _below(len(c_edges), alpha)
        if certs.refute(w, cap):
            continue
        inner = sub.edge_ids()
        found = oracle.min_inner_edges(g, inner, cap)
        if found is None:
            return g.subgraph(c_edges, w)
        certs.add_witness(inner, found[1])
    return None


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


# -- the 2-cut partition on a built graph -----------------------------------


def partition_by_graphs(g: Graph, u: int, v: int) -> CutPartition:
    """`reduction.partition_non_isolating` with the components of g - {u, v}
    read off a built `Graph`."""
    if g.n < 6:
        raise ValueError("need at least 6 vertices")
    comps = sorted(components(g.without_vertices({u, v})),
                   key=lambda c: (len(c), c[0]))
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
    return CutPartition(u, v, frozenset(a), frozenset(b))


# -- the exact 2EC search, one recursion level per edge ----------------------


class BridgeArrays(_EdgeArrays):
    """`_EdgeArrays` with a bridge test of its own over edge positions."""

    def __init__(self, g: Graph):
        super().__init__(g)
        self.adj = [[i for _w, i in row] for row in self.nb]

    def is_2ec_now(self) -> bool:
        """Connected over all n vertices and bridgeless, on present edges."""
        n = self.n
        if n == 0:
            return True
        disc = [-1] * n
        low = [0] * n
        present = self.present
        adj = self.adj
        eu, ev = self.eu, self.ev
        counter = 0
        disc[0] = low[0] = 0
        counter = 1
        visited = 1
        stack = [(0, -1, 0)]
        while stack:
            v, in_e, it = stack.pop()
            lst = adj[v]
            advanced = False
            while it < len(lst):
                ei = lst[it]
                it += 1
                if not present[ei]:
                    continue
                w = eu[ei] ^ ev[ei] ^ v
                if w == v:
                    continue
                if disc[w] < 0:
                    stack.append((v, in_e, it))
                    disc[w] = low[w] = counter
                    counter += 1
                    visited += 1
                    stack.append((w, ei, 0))
                    advanced = True
                    break
                if ei != in_e and disc[w] < low[v]:
                    low[v] = disc[w]
            if not advanced and it >= len(lst):
                if in_e != -1:
                    p = eu[in_e] ^ ev[in_e] ^ v
                    if low[v] > disc[p]:
                        return False  # bridge
                    if low[v] < low[p]:
                        low[p] = low[v]
        return visited == n



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
    arr = BridgeArrays(g)
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


# -- the block DFS on ids, and what was read off it -------------------------


def biconnected_blocks(g: Graph) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Blocks of g as (vertex set, edge ids), in the order the DFS closes them.

    Iterative lowpoint DFS with an edge stack (Tarjan 1972): a tree edge p-v
    closes a block when no edge below v reaches above p.
    """
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    out: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        estack: List[Edge] = []
        # stack entries: (vertex, incoming tree edge or None, iterator index)
        stack: List[Tuple[int, Optional[Edge], int]] = [(root, None, 0)]
        while stack:
            v, in_e, i = stack.pop()
            inc = g.incident(v)
            while i < len(inc):
                e = inc[i]
                i += 1
                w = e.other(v)
                if w == v:
                    continue
                if w not in disc:
                    stack.append((v, in_e, i))
                    disc[w] = low[w] = len(disc)
                    estack.append(e)
                    stack.append((w, e, 0))
                    break
                if e is not in_e and disc[w] < disc[v]:
                    estack.append(e)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                # v is finished; propagate its lowpoint to the parent
                if in_e is None:
                    continue
                p = in_e.other(v)
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    vs: Set[int] = set()
                    es: List[int] = []
                    while True:
                        f = estack.pop()
                        vs.add(f.u)
                        vs.add(f.v)
                        es.append(f.id)
                        if f is in_e:
                            break
                    out.append((frozenset(vs), frozenset(es)))
    return out


def two_vertex_cuts(g: Graph) -> List[Tuple[Tuple[int, int], str]]:
    """All 2-vertex cuts with their classification, from one
    `biconnected_blocks(g - u)` per u on a built g - u."""
    out = []
    vs = g.vertices
    for i, u in enumerate(vs):
        blocks = biconnected_blocks(g.without_vertices((u,)))
        count = Counter(x for bvs, _es in blocks for x in bvs)
        leaf_of = {y for bvs, _es in blocks if len(bvs) == 2
                   for x in bvs if count[x] == 1 for y in bvs - {x}}
        spare = len(vs) - 2 - sum(len(bvs) - 1 for bvs, _es in blocks)
        lonely = len(vs) - 1 - len(count)   # vertices of g - u in no block
        for v in vs[i + 1:]:
            k = spare + count[v]
            if k >= 2:
                alone = v in leaf_of or lonely > (count[v] == 0)
                out.append(((u, v), "isolating" if k == 2 and alone
                            else "non_isolating"))
    return out


@dataclass
class BlockDecomposition:
    """2EC blocks and bridges of a subgraph.

    blocks: list of (vertex frozenset, edge frozenset), maximal 2EC pieces
    with at least one edge. bridge_ids: the bridges. lonely: vertices on
    bridges only (in no block).
    """
    blocks: List[Tuple[FrozenSet[int], FrozenSet[int]]]
    bridge_ids: FrozenSet[int]
    lonely: FrozenSet[int]


def two_ec_blocks(g: Graph) -> BlockDecomposition:
    """2EC blocks as the components of g less its bridges, one induced
    subgraph each, sorted by smallest vertex."""
    br = {eid for _vs, es in biconnected_blocks(g) if len(es) == 1
          for eid in es}
    residue = g.without_edges(br)
    blocks = []
    lonely = []
    for comp in components(residue):
        sub = residue.induced(comp)
        if sub.m == 0:
            if len(comp) == 1:
                lonely.append(comp[0])
            continue
        blocks.append((frozenset(comp), sub.edge_set()))
    blocks.sort(key=lambda b: min(b[0]))
    return BlockDecomposition(blocks, frozenset(br), frozenset(lonely))


# -- the credit ledger of a cover -----------------------------------------


@dataclass
class CreditLedger:
    component_credits: Dict[int, Fraction] = field(default_factory=dict)
    block_credits: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)
    bridge_credits: Dict[int, Fraction] = field(default_factory=dict)

    @property
    def total(self) -> Fraction:
        return (sum(self.component_credits.values(), Fraction(0))
                + sum(self.block_credits.values(), Fraction(0))
                + sum(self.bridge_credits.values(), Fraction(0)))


def credits(s: Graph) -> CreditLedger:
    """Credit ledger for a 2-edge cover given as its (spanning) subgraph."""
    led = CreditLedger()
    for comp in components(s):
        key = comp[0]
        sub = s.induced(comp)
        if is_2ec(sub):
            # m/4 for a short cycle-like component, capped at 2
            led.component_credits[key] = min(Fraction(sub.m, 4), Fraction(2))
        else:
            led.component_credits[key] = Fraction(1)
            dec = two_ec_blocks(sub)
            for vs, _es in dec.blocks:
                led.block_credits[(key, min(vs))] = Fraction(1)
            for beid in dec.bridge_ids:
                led.bridge_credits[beid] = Fraction(1, 4)
    return led


def cost(s: Graph) -> Fraction:
    return Fraction(s.m) + credits(s).total


def component_graph(g: Graph, s_edges: Iterable[int]) -> ComponentGraph:
    """The components of g.spanning(s_edges), each contracted to its
    smallest vertex."""
    node_vertices: Dict[int, FrozenSet[int]] = {}
    vertex_node: Dict[int, int] = {}
    for comp in components(g.spanning(s_edges)):
        node_vertices[comp[0]] = frozenset(comp)
        for v in comp:
            vertex_node[v] = comp[0]
    return ComponentGraph(g.quotient(vertex_node), node_vertices, vertex_node)


# -- type classification at a 2-cut pair ------------------------------------


def _with_uv(g: Graph, u: int, v: int, k: int) -> Graph:
    """g plus k virtual u–v edges, with ids above g's largest."""
    top = max(g.edge_ids(), default=-1)
    return g.with_edges([Edge(top + 1 + i, u, v) for i in range(k)])


def classify_type(h: Graph, u: int, v: int) -> Optional[str]:
    """Type of spanning subgraph h w.r.t. the 2-cut pair {u, v}.

    'A': h is 2EC (one super-node). 'B': contracting each 2EC block gives a
    path whose end super-nodes contain u and v respectively. 'C': exactly two
    components, each 2EC (possibly single vertices), one holding u, one v.
    None: anything else.
    """
    # h + uv is 2EC exactly when every bridge of h separates u from v, that
    # is when the bridge tree is a u–v path; h + 2·uv is 2EC exactly when h
    # is two 2EC components split by {u, v}.
    if is_2ec(h):
        return "A"
    n_comps = len(components(h))
    if n_comps == 1 and is_2ec(_with_uv(h, u, v, 1)):
        return "B"
    if n_comps == 2 and is_2ec(_with_uv(h, u, v, 2)):
        return "C"
    return None


def opt_typed_by_graphs(g1: Graph, u: int, v: int,
                        t: str) -> Optional[FrozenSet[int]]:
    """`oracle.opt_type` without g_full as it stood before its tests moved
    to arrays: the same exact search over g1 plus k = 0, 1 or 2 virtual
    u–v edges, no refutation of type C before it, and each leaf's type
    tested on a built g1.spanning(kept): not 2EC for 'B', more than one
    component for 'C'."""
    g = _with_uv(g1, u, v, "ABC".index(t))
    free = g.edge_set() - g1.edge_set()

    def h(arr: _EdgeArrays) -> Graph:
        return g1.spanning(eid for eid, p in zip(arr.eids, arr.present)
                           if p and eid not in free)

    accept = {"A": None,
              "B": lambda arr: not is_2ec(h(arr)),
              "C": lambda arr: len(components(h(arr))) > 1}[t]
    found = oracle._min_2ec(_EdgeArrays(g), free, None, None, accept)
    return None if found is None else found[1]


# -- bridge-cover reachability ------------------------------------------------


def reachable(tc: TcTree, w: Iterable[int]) -> FrozenSet[int]:
    """Tree nodes outside w joined to w by some augmenting path."""
    return frozenset(_reach_paths(tc, w))


# -- the DFS baseline, one back-edge scan per vertex -------------------------


def baseline_dfs2(g: Graph) -> FrozenSet[int]:
    """DFS tree plus, per non-root vertex, the highest back edge leaving
    its subtree. At most 2n - 2 edges; 2EC whenever g is."""
    if not is_2ec(g):
        raise InfeasibleError("input graph is not 2-edge-connected")
    root = min(g.vertices)
    parent: Dict[int, Optional[int]] = {root: None}
    parent_eid: Dict[int, int] = {}
    order: List[int] = [root]

    def out(u: int):
        return iter(g.incident(u))

    stack = [(root, out(root))]
    while stack:
        u, it = stack[-1]
        for e in it:
            w = e.other(u)
            if w not in parent:
                parent[w] = u
                parent_eid[w] = e.id
                order.append(w)
                stack.append((w, out(w)))
                break
        else:
            stack.pop()
    tin: Dict[int, int] = {}
    tout: Dict[int, int] = {}
    clock = 0
    # order is a valid DFS preorder for the parent tree built above
    children: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for v in order[1:]:
        children[parent[v]].append(v)
    walk = [(root, False)]
    while walk:
        v, done = walk.pop()
        if done:
            tout[v] = clock
            continue
        tin[v] = clock
        clock += 1
        walk.append((v, True))
        for w in reversed(children[v]):
            walk.append((w, False))

    def in_subtree(x: int, v: int) -> bool:
        return tin[v] <= tin[x] < tout[v]

    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    tree_ids = set(parent_eid.values())
    back = [e for e in g.edges() if e.id not in tree_ids]
    chosen = set(tree_ids)
    for v in order[1:]:
        cands = []
        for e in back:
            a, b = e.u, e.v
            if depth[a] < depth[b]:
                a, b = b, a
            # a is the deep endpoint; the edge leaves subtree(v) upward
            if in_subtree(a, v) and not in_subtree(b, v):
                cands.append((depth[b], e.id))
        if not cands:
            raise InfeasibleError(f"tree edge above {v} is a bridge")
        chosen.add(min(cands)[1])
    out = frozenset(chosen)
    sub = g.spanning(out)
    assert is_2ec(sub) and sub.n == g.n
    return out


# -- the guess trees by recursion, and Hamiltonian paths by popcount order ----


def guesses_by_recursion(g: Graph) -> Iterator[FrozenSet[int]]:
    """All 7-edge trees of g spanning 8 vertices, each exactly once.

    Grouped by vertex set (ascending anchor, extension order), then by
    lexicographic edge-id tuple within a set.
    """
    for w in connected_subsets(g, 8):
        if len(w) < 8:
            continue
        sub = g.induced(w)
        if sub.m < 7:
            continue
        yield from spanning_trees_by_recursion(sub)


def spanning_trees_by_recursion(sub: Graph) -> Iterator[FrozenSet[int]]:
    """Spanning trees of sub in lex order of their sorted edge-id tuples."""
    eids = sub.edge_ids()
    n = sub.n
    verts = {v: i for i, v in enumerate(sub.vertices)}

    def find(parent: List[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connected_with(rest: List[int], chosen: List[int]) -> bool:
        parent = list(range(n))
        cnt = n
        for eid in chosen + rest:
            e = sub.edge(eid)
            a, b = find(parent, verts[e.u]), find(parent, verts[e.v])
            if a != b:
                parent[a] = b
                cnt -= 1
        return cnt == 1

    def rec(idx: int, chosen: List[int], parent: List[int], comps: int
            ) -> Iterator[FrozenSet[int]]:
        if comps == 1:
            yield frozenset(chosen)
            return
        if idx == len(eids):
            return
        eid = eids[idx]
        e = sub.edge(eid)
        a, b = find(parent, verts[e.u]), find(parent, verts[e.v])
        if a != b:
            p2 = list(parent)
            p2[a] = b
            yield from rec(idx + 1, chosen + [eid], p2, comps - 1)
        # skipping eid must leave enough connectivity to finish
        if connected_with(eids[idx + 1:], chosen):
            yield from rec(idx + 1, chosen, parent, comps)

    yield from rec(0, [], list(range(n)), n)


def hamiltonian_path_by_popcount(g: Graph, w: Iterable[int], u: int,
                                 v: int) -> Optional[List[int]]:
    """A Hamiltonian u,v-path in g[w], or None: a bitmask DP over the masks
    sorted by popcount, with a parent per (mask, last vertex)."""
    ws = sorted(set(w))
    k = len(ws)
    if k > 8:
        raise ValueError("hamiltonian_path capped at 8 vertices")
    if u not in ws or v not in ws:
        return None
    if k == 1:
        return [u] if u == v else None
    if u == v:
        return None
    idx = {x: i for i, x in enumerate(ws)}
    wset = set(ws)
    nbr = [0] * k
    for x in ws:
        for y in g.neighbors(x):
            if y in wset:
                nbr[idx[x]] |= 1 << idx[y]
    ui, vi = idx[u], idx[v]
    full = (1 << k) - 1
    # parent[(mask, last)] for path reconstruction
    start = 1 << ui
    reach: Dict[int, int] = {start: 1 << ui}  # mask -> bitset of possible last vertices
    parent: Dict[Tuple[int, int], int] = {}
    order = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
    for mask in order:
        if not (mask & start):
            continue
        lasts = reach.get(mask)
        if not lasts:
            continue
        for last in range(k):
            if not (lasts >> last) & 1:
                continue
            ext = nbr[last] & ~mask
            while ext:
                nxt = (ext & -ext).bit_length() - 1
                ext &= ext - 1
                nm = mask | (1 << nxt)
                prev = reach.get(nm, 0)
                if not (prev >> nxt) & 1:
                    reach[nm] = prev | (1 << nxt)
                    parent[(nm, nxt)] = last
    if not ((reach.get(full, 0) >> vi) & 1):
        return None
    path = [vi]
    mask, last = full, vi
    while mask != start:
        p = parent[(mask, last)]
        mask &= ~(1 << last)
        last = p
        path.append(last)
    path.reverse()
    return [ws[i] for i in path]


# -- the glue step's anchored cycle and cycle arcs, and the branch split -------


def anchored_cycle(ctx: GlueContext, r1: int, r2: int,
                   gate1: Optional[Tuple[Iterable[int], Iterable[int]]] = None,
                   gate2: Optional[Tuple[Iterable[int], Iterable[int]]] = None,
                   allowed: Optional[FrozenSet[int]] = None):
    """A cycle of the contraction through components r1 and r2: two
    node-disjoint paths of one flow network, with r1's gate built on the
    source side and r2's on the sink side by two copies of the same code,
    and four cases for each end of each edge. Returns (edge ids,
    (r1 attachments), (r2 attachments)) or None."""
    net = FlowNet()
    src, snk = ("src",), ("snk",)

    def ok(rep: int) -> bool:
        return allowed is None or rep in allowed or rep in (r1, r2)

    if gate1 is not None:
        seen1 = set(gate1[0]) | set(gate1[1])
        for i in (0, 1):
            net.add_arc(src, ("g1", i), None)
        for v in sorted(seen1):
            net.add_arc(("v1i", v), ("v1o", v), None)
        for i in (0, 1):
            for v in sorted(set(gate1[i])):
                net.add_arc(("g1", i), ("v1i", v), None)

        def out1(v):
            return ("v1o", v)
        allow1 = seen1
    else:
        def out1(v):
            return src
        allow1 = set(ctx.comp_vertices(r1))

    if gate2 is not None:
        seen2 = set(gate2[0]) | set(gate2[1])
        for i in (0, 1):
            net.add_arc(("g2", i), snk, None)
        for v in sorted(seen2):
            net.add_arc(("v2i", v), ("v2o", v), None)
        for i in (0, 1):
            for v in sorted(set(gate2[i])):
                net.add_arc(("v2o", v), ("g2", i), None)

        def in2(v):
            return ("v2i", v)
        allow2 = seen2
    else:
        def in2(v):
            return snk
        allow2 = set(ctx.comp_vertices(r2))

    for rep in sorted(ctx.ghat.node_vertices):
        if rep not in (r1, r2) and ok(rep):
            net.add_arc(("ci", rep), ("co", rep), None)
    for e in ctx.g.edges():
        cu, cv = ctx.ghat.node_of(e.u), ctx.ghat.node_of(e.v)
        if cu == cv:
            continue
        for x, cx, y, cy in ((e.u, cu, e.v, cv), (e.v, cv, e.u, cu)):
            if cx == r1 and cy == r2:
                if x in allow1 and y in allow2:
                    net.add_arc(out1(x), in2(y), e)
            elif cx == r1:
                if ok(cy) and cy != r2 and x in allow1:
                    net.add_arc(out1(x), ("ci", cy), e)
            elif cy == r2:
                if ok(cx) and cx != r1 and y in allow2:
                    net.add_arc(("co", cx), in2(y), e)
            elif cx != r2 and cy != r1:
                if ok(cx) and ok(cy):
                    net.add_arc(("co", cx), ("ci", cy), e)

    if net.max_flow(src, snk, 2) < 2:
        return None
    p1, p2 = net.two_paths(src, snk)

    def ends(path):
        first, last = path[0], path[-1]
        a = first.u if ctx.ghat.node_of(first.u) == r1 else first.v
        b = last.u if ctx.ghat.node_of(last.u) == r2 else last.v
        return a, b

    (a1, b1), (a2, b2) = ends(p1), ends(p2)
    ids = [e.id for e in p1] + [e.id for e in p2]
    return ids, (a1, a2), (b1, b2)


def arc_keeping(ctx: GlueContext, fids: List[int], start: int, end: int,
                want: int) -> Optional[List[int]]:
    """Edges of the cycle arc from component start to end whose components
    include want: each direction walked one step at a time until it meets
    end, with a guard against a walk that overruns the cycle."""
    seq = _cycle_sequence(ctx, fids)
    if seq is None or start not in seq or end not in seq:
        return None
    order = list(seq)
    i, j = order.index(start), order.index(end)
    n = len(order)
    for direction in (1, -1):
        arc_nodes = []
        k = i
        while True:
            arc_nodes.append(order[k % n])
            if order[k % n] == end:
                break
            k += direction
            if len(arc_nodes) > n:
                return None
        if want in arc_nodes:
            ids = []
            for a, b in zip(arc_nodes, arc_nodes[1:]):
                eid = _cycle_edge_between(ctx, fids, a, b)
                if eid is None:
                    return None
                ids.append(eid)
            return ids
    return None


def branch_partition(tc: TcTree, path: List[int]) -> Dict[int, Set[int]]:
    """Nodes hanging off path[i] (i >= 1), grouped by attachment index:
    the components of the tree less the path, each with a scan of every
    tree edge for the one that leaves it."""
    pset = set(path)
    index = {v: i for i, v in enumerate(path)}
    rest = tc.tree.without_vertices(pset)
    out: Dict[int, Set[int]] = {}
    for comp in components(rest):
        cset = set(comp)
        attach = None
        for e in tc.tree.edges():
            if (e.u in cset) != (e.v in cset):
                anchor = e.u if e.u in pset else e.v
                if anchor in pset:
                    attach = index[anchor]
        if attach is None or attach == 0:
            raise InternalContradiction("branch not attached to spine interior",
                                        counterexample=(tc.g, path))
        out.setdefault(attach, set()).update(cset)
    return out
