"""Exact desk-scale solvers.

Branch-and-bound over edge inclusion with degree-deficiency lower bounds.
Used inside the main algorithm (base cases, type optima, contractibility
tests) and as ground truth in the acceptance suite. Ties among equal-size
optima break to the lexicographically smallest edge-id set.

One search, `_deepen`, computes both exact objects, with bounds computed
from degrees with the standard library only. It deepens on the kept
count from a degree-deficiency bound with a keep-first DFS in ascending
edge-id order, so its first hit is the (size, lex) minimum, on an
explicit frame stack that never recurses. It runs on an `_EdgeArrays`:
the `graph._index` lists of g, the ends of each edge position, and a
present mask with the degrees it implies. A removal clears the edge's
mask bit. The present edges are 2EC before it, so the 2EC test after
it is `graph._two_paths`: two edge-disjoint paths between the removed
edge's ends, two breadth-first searches in place of a lowpoint DFS over
the whole graph. Its callers differ in three ways, each an argument:

- free edges: `min_inner_edges` and `opt_type` keep some edges without
  counting them (`min_2ecss` has none, `min_tf2ec` counts its forced
  edges);
- `connected`: the 2EC searches drop an edge only while the rest stays
  2EC, and ask a lone vertex for no degree;
- the leaf test: 2EC of free ∪ kept, and for `opt_type` the type, read
  off the present mask with the virtual u–v edges cleared; or, for
  `min_tf2ec`, no triangle component.

`opt_type` rules type C out before any search when the 2-edge-connected
components of the side cannot hold two pieces, one with u and one with
v (`_no_type_c`), and tests the complement side of a cut on an index of
its vertices, with no graph built (`_complement_2ec`).

`find_contractible_subgraph` runs the exact 2EC search only on the few
vertex sets W that cheap tests leave open. Its set search makes only the
connected sets in which every vertex has two edge ends, and they are
tested in the order of `graph.connected_subsets`. The search runs on
bitmasks over vertex positions: W, the vertices it may not take and W's
neighbours are ints, and each vertex has a mask of its neighbours and a
mask of those it reaches by parallel edges, since two parallel edges
give a vertex its two ends in W with one neighbour. A set becomes a
frozenset of vertex ids only when it is found. For any 2EC spanning
subgraph H of g, H ∩ E(g[W]) is a witness against W, because
(g − E(g[W])) ∪ (H ∩ E(g[W])) contains H. So W is not contractible when
some H keeps fewer than |E(C)|/alpha edges of g[W], C the minimum 2EC
spanning subgraph of g[W]. This is checked with |W| for |E(C)| before
g[W] is tested for 2EC (|E(C)| >= |W| once |W| >= 3), and with |E(C)|
itself after `min_2ecss`. The 2EC test runs on W's rows of g's `_index`,
so g[W] is built only for the sets that pass it. The certificates form a
pool per call: two reverse-delete minimal 2EC spanning subgraphs of g
(ascending and descending edge ids), and one sparsified witness of the
exact search for each set it rejects.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import compress
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from .errors import OracleBudgetError, OracleTimeout
from .graph import (Edge, Graph, _index, _is_2ec, _labels, _sub_index,
                    _two_paths, bridges)


# nodes the set search of `find_contractible_subgraph` may make per call
SUBSET_BUDGET = 5_000_000


def _check_deadline(deadline: Optional[float], search: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout(f"oracle time cap exceeded in the {search}")


# -- the deepening search ---------------------------------------------------


class _EdgeArrays:
    """Mutable array view of a graph for the hot search loops: the
    `graph._index` lists `nb` (passed in when the caller has built them),
    the ends and ids of each edge position, and the present mask and
    degrees that `remove` and `restore` keep."""

    def __init__(self, g: Graph,
                 nb: Optional[List[List[Tuple[int, int]]]] = None):
        vidx = {v: i for i, v in enumerate(g.vertices)}
        self.n = g.n
        self.nb = _index(g) if nb is None else nb
        es = g.edges()
        self.eids = [e.id for e in es]
        self.pos = {e.id: i for i, e in enumerate(es)}
        self.eu = [vidx[e.u] for e in es]
        self.ev = [vidx[e.v] for e in es]
        self.present = [True] * len(es)
        self.deg = [0] * self.n
        for i in range(len(es)):
            self.deg[self.eu[i]] += 1
            self.deg[self.ev[i]] += 1

    def reset(self) -> None:
        """Restore every removed edge."""
        for i, p in enumerate(self.present):
            if not p:
                self.restore(i)

    def remove(self, i: int) -> None:
        self.present[i] = False
        self.deg[self.eu[i]] -= 1
        self.deg[self.ev[i]] -= 1

    def restore(self, i: int) -> None:
        self.present[i] = True
        self.deg[self.eu[i]] += 1
        self.deg[self.ev[i]] += 1


def _deepen(arr: _EdgeArrays, forced: Iterable[int], hi: int,
            deadline: Optional[float],
            leaf: Callable[[List[int], List[int]], bool],
            connected: bool) -> Optional[List[int]]:
    """Smallest, then lex-first, kept set K ⊇ forced with |K| <= hi whose
    every vertex has degree >= 2 in K and that `leaf` accepts; the array
    positions of K, or None. Raises OracleTimeout past `deadline`.

    `forced` holds distinct edge ids. `leaf(st, kd)` sees the edge states
    (1 kept, 0 undecided, -1 removed; undecided edges count as removed)
    and the kept degrees. With `connected`, every removal must leave the
    present edges (kept and undecided) 2EC, the search fails at once when
    all of them are not, and a lone vertex needs no degree. The present
    edges are 2EC on entry (`graph._is_2ec`) and after every removal that
    passes, and undoing a decision only restores edges, so a removal of
    edge ab is tested by `graph._two_paths` between a and b.

    Iterative deepening on k = |K|, from the kept edges plus half the
    summed degree deficiency (an edge lowers it by at most two), with a
    keep-first DFS over ascending positions per k and an explicit frame
    stack with an undo trail: the DFS meets k-sets in lex order, so its
    first leaf is the answer. Unit propagation keeps the undecided edges
    of a vertex whose deficiency equals its undecided degree; they lie in
    every leaf below the node, so the order is unchanged.
    """
    search = "exact 2EC search" if connected else "triangle-free cover search"
    _check_deadline(deadline, search)
    eu, ev, nb, deg, present = arr.eu, arr.ev, arr.nb, arr.deg, arr.present
    m = len(eu)
    dmin = 0 if connected and arr.n < 2 else 2  # the degree each vertex needs
    st = [0] * m            # edge state: 0 undecided, 1 kept, -1 removed
    kd = [0] * arr.n        # kept degree; deg - kd is the undecided degree
    trail: List[int] = []   # edges in the order they were decided
    frames: List[Tuple[int, int, int]] = []  # (branch edge, trail mark, state)
    nk, dsum, nodes = 0, dmin * arr.n, 0     # kept edges, summed deficiency

    def fix(i: int, s: int) -> None:
        nonlocal nk, dsum
        st[i] = s
        trail.append(i)
        if s == -1:
            arr.remove(i)
            return
        nk += 1
        for x in (eu[i], ev[i]):
            if kd[x] < dmin:
                dsum -= 1
            kd[x] += 1

    def undo(mark: int) -> None:
        nonlocal nk, dsum
        while len(trail) > mark:
            i = trail.pop()
            if st[i] == -1:
                arr.restore(i)
            else:
                nk -= 1
                for x in (eu[i], ev[i]):
                    kd[x] -= 1
                    if kd[x] < dmin:
                        dsum += 1
            st[i] = 0

    def settle(work: List[int]) -> bool:
        """Propagate from the vertices in `work`; False on a contradiction."""
        while work:
            x = work.pop()
            need = dmin - kd[x]
            if need > 0 and deg[x] - kd[x] <= need:
                if deg[x] - kd[x] < need:
                    return False
                for w, i in nb[x]:
                    if st[i] == 0:
                        fix(i, 1)
                        work.append(w)
        return True

    def branch(i: int, s: int) -> bool:
        frames.append((i, len(trail), s))
        fix(i, s)
        # the present edges were 2EC before i was removed
        return settle([eu[i], ev[i]]) and (
            s == 1 or not connected or _two_paths(nb, present, eu[i], ev[i]))

    def search(k: int) -> bool:
        nonlocal nodes
        pos, ok = 0, True
        while True:
            nodes += 1
            if nodes % 256 == 0:
                _check_deadline(deadline, search)
            # k is reachable: the bound allows it and enough edges are left
            if ok and nk + (dsum + 1) // 2 <= k <= nk + m - len(trail):
                if nk == k:
                    if leaf(st, kd):
                        return True
                else:
                    while st[pos]:  # edges below pos are all decided
                        pos += 1
                    ok = branch(pos, 1)
                    pos += 1
                    continue
            # dead end: take the remove branch of the deepest keep branch
            while frames and frames[-1][2] == -1:
                undo(frames.pop()[1])
            if not frames:
                return False
            i, mark, _ = frames.pop()
            undo(mark)
            ok = branch(i, -1)
            pos = i + 1

    for eid in forced:
        fix(arr.pos[eid], 1)
    if settle(list(range(arr.n))) and (not connected or _is_2ec(nb, present)):
        for k in range(nk + (dsum + 1) // 2, hi + 1):
            if search(k):
                return [i for i in range(m) if st[i] == 1]
    return None


# -- minimum 2EC spanning subgraph ----------------------------------------


def min_2ecss(g: Graph, deadline: Optional[float] = None,
              vertex_cap: Optional[int] = None) -> FrozenSet[int]:
    """Minimum-cardinality 2EC spanning subgraph of g, exact.

    Raises OracleTimeout past `deadline` (a `time.monotonic` instant; None
    means unlimited), checked on entry too, and OracleBudgetError when g
    has more than `vertex_cap` vertices (None means no cap). g must be 2EC;
    ValueError otherwise.
    """
    if vertex_cap is not None and g.n > vertex_cap:
        raise OracleBudgetError(
            f"min_2ecss called with n={g.n} > cap {vertex_cap}")
    found = _min_2ec(g, frozenset(), None, deadline)
    if found is None:
        raise ValueError("min_2ecss input must be 2EC")
    return found[1]


def min_inner_edges(g: Graph, inner: Sequence[int], cap: Optional[int],
                    deadline: Optional[float] = None
                    ) -> Optional[Tuple[int, FrozenSet[int]]]:
    """Minimize |H' ∩ inner| such that (g − inner) ∪ H' is 2EC spanning.

    Edges outside `inner` are free (always present, not counted). Returns
    (count, chosen inner edges) or None if no solution with count <= cap.
    """
    return _min_2ec(g, g.edge_set() - set(inner), cap, deadline)


def _min_2ec(g: Graph, free: FrozenSet[int], cap: Optional[int],
             deadline: Optional[float],
             accept: Optional[Callable[[_EdgeArrays], bool]] = None
             ) -> Optional[Tuple[int, FrozenSet[int]]]:
    """Keep the fewest, then lex-first, edges outside `free` so that free ∪
    kept is 2EC spanning, at most cap of them when cap is given; with
    `accept`, only a leaf it accepts counts. It sees the search's
    `_EdgeArrays` of g, whose present mask marks free ∪ kept there, and
    leaves them as it found them. Returns (count, kept) or None.

    The free edges are forced and not counted: count = kept − |free|, and
    the deepening stops at |free| + cap. `_deepen` runs with `connected`,
    so every leaf below a node keeps a subset of the present edges, which
    are 2EC. This returns what `reference.min_inner_2ec` in the tests, the
    recursive search it replaced, returns:
    - The bounds agree. With cd the free and kept degrees and nk the kept
      count, sum_v max(2, cd[v]) = 2(|free| + nk) + dsum, so
      ceil(sum/2) − |free| = nk + ceil(dsum/2).
    - A 2EC spanning graph on two or more vertices gives every vertex
      degree >= 2, so unit propagation keeps only edges that every
      accepted leaf below the node contains. The keep-first order is
      unchanged, and with it the first hit, the (size, lex) minimum.
    - At a leaf the undecided edges are dropped and free ∪ kept is tested;
      the recursive search reached the same leaf by dropping them one at
      a time, each drop keeping the rest 2EC, which holds exactly when
      free ∪ kept is 2EC.
    """
    arr = _EdgeArrays(g)

    def leaf(st: List[int], kd: List[int]) -> bool:
        drop = [i for i, s in enumerate(st) if s == 0]
        for i in drop:
            arr.remove(i)
        # the present edges are 2EC on entry and after every removal
        ok = (not drop or _is_2ec(arr.nb, arr.present)) and (
            accept is None or accept(arr))
        for i in drop:
            arr.restore(i)
        return ok

    hi = g.m if cap is None else len(free) + cap
    kept = _deepen(arr, free, hi, deadline, leaf, connected=True)
    if kept is None:
        return None
    chosen = frozenset(arr.eids[i] for i in kept) - free
    return len(chosen), chosen


# -- minimum triangle-free 2-edge cover -----------------------------------


def min_tf2ec(g: Graph, forced: Iterable[int] = (),
              deadline: Optional[float] = None) -> FrozenSet[int]:
    """Minimum triangle-free 2-edge cover of g containing `forced`.

    Every vertex gets degree >= 2 in the cover, a kept loop counting twice
    as in `Graph.degree`, and no connected component of the cover is a
    triangle. Ties among minimum covers break to the lexicographically
    smallest sorted edge-id list. Raises ValueError when no such cover
    exists, OracleTimeout past `deadline`.

    `_deepen` without `connected`, with a triangle test at the leaves. The
    forced edges are decided before the search and the others keep their
    ascending order, so the answer is the (size, lex)-minimum among the
    covers containing `forced`; `cover.initial_cover` forces the guess of
    the structured solver this way.
    """
    arr = _EdgeArrays(g)
    nb = arr.nb

    def triangle_free(st: List[int], kd: List[int]) -> bool:
        for x in range(arr.n):
            if kd[x] != 2:
                continue
            ks = [w for w, i in nb[x] if st[i] == 1]
            if len(ks) != 2:
                continue  # one kept loop
            a, b = ks
            if a != b and kd[a] == 2 and kd[b] == 2 and any(
                    st[i] == 1 and w == b for w, i in nb[a]):
                return False
        return True

    kept = _deepen(arr, set(forced), g.m, deadline, triangle_free,
                   connected=False)
    if kept is None:
        raise ValueError("no triangle-free 2-edge cover containing forced set")
    return frozenset(arr.eids[i] for i in kept)


# -- contractibility ------------------------------------------------------


def _below(x: int, alpha: Fraction) -> int:
    """Largest count strictly below x/alpha."""
    return math.ceil(Fraction(x) / alpha) - 1


def _two_ended_sets(nb: List[List[Tuple[int, int]]], vs: Sequence[int],
                    kmax: int, deadline: Optional[float]
                    ) -> Iterator[Tuple[int, List[FrozenSet[int]]]]:
    """For each anchor v of the graph with `_index` lists nb and vertex ids
    vs, ascending: v and the connected sets W with min(W) = v and 3 <= |W|
    <= kmax in which every vertex has two non-loop edge ends in W, each set
    once, in no set order.

    A search node is a connected set W with the set of vertices it may not
    take. It branches on the far ends of W's first deficient member, in
    edge order, or on W's boundary, ascending, when none is deficient; each
    branch bans the earlier candidates. The sets do not depend on that
    order, the node count does. A node is a few ints over vertex positions:
    W, the banned set and the far neighbours of W are bitmasks, the members
    that may still lack two ends a tuple of positions, oldest first. W
    becomes a frozenset of ids only when it is emitted. Each position x has
    a mask of its far neighbours and a mask of those it reaches by two or
    more parallel edges: the first counts a neighbour once however many
    edges join them, so x has two ends in W when its first mask meets W in
    two bits or its second mask meets W at all. It runs on an explicit
    stack, since kmax grows without bound as alpha -> 1. Raises
    OracleBudgetError after `SUBSET_BUDGET` nodes and OracleTimeout past
    `deadline`, both checked at every node.
    """
    n = len(nb)
    far, twice = [0] * n, [0] * n
    ends: List[List[int]] = [[] for _ in nb]  # far neighbours, in edge order
    for x, row in enumerate(nb):
        for y, _j in row:
            if y == x:
                continue
            bit = 1 << y
            if far[x] & bit:
                twice[x] |= bit
            else:
                far[x] |= bit
                ends[x].append(y)
    every, nodes = range(n), 0
    for v in every:
        above = -2 << v  # the positions after v
        found: List[int] = []
        # (W, members that may lack two ends in W, banned, far neighbours
        # of W, |W|)
        stack = [(1 << v, (v,), 0, far[v], 1)]
        while stack:
            w, short, banned, reach, size = stack.pop()
            nodes += 1
            if nodes > SUBSET_BUDGET:
                raise OracleBudgetError("set search budget exhausted")
            _check_deadline(deadline, "contractibility set search")
            while short:
                x = short[0]
                both = far[x] & w
                if not (both & (both - 1) or twice[x] & w):
                    break
                short = short[1:]
            if not short and size >= 3:
                found.append(w)
            if size == kmax:
                continue
            if short:
                x = short[0]
                free = far[x] & above & ~(w | banned)
                cands = [y for y in ends[x] if free >> y & 1] if free else []
            else:
                cands = list(_members(reach & above & ~(w | banned), every))
            for c in cands:
                bit = 1 << c
                stack.append((w | bit, short + (c,), banned, reach | far[c],
                              size + 1))
                banned |= bit
        yield vs[v], [frozenset(_members(w, vs)) for w in found]


# bin(m), read back to front, holds bit i of m at index i, as '0' or '1'
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _members(m: int, items: Sequence[int]) -> Iterator[int]:
    """The items at the positions of the set bits of m >= 0, ascending."""
    return compress(items, bin(m)[:1:-1].encode().translate(_BIT_BYTES))


def _preorder_key(nbrs: Dict[int, List[int]], v: int,
                  w: FrozenSet[int]) -> List[int]:
    """Where `connected_subsets` yields w among the sets of anchor v = min(w):
    w lies under the child of the first extension-list vertex it holds, so
    that index, frame by frame, orders the sets as its preorder does."""
    current, banned, key = {v}, set(), []
    ext = [x for x in nbrs[v] if x > v]
    while len(current) < len(w):
        i = next(i for i, x in enumerate(ext) if x in w)
        key.append(i)
        banned.update(ext[:i])
        u, rest = ext[i], ext[i + 1:]
        current.add(u)
        ext = rest + [x for x in nbrs[u] if x > v and x not in current
                      and x not in banned and x not in rest]
    return key


class _Certificates:
    """The pool of 2EC spanning subgraphs H of g that refute contractible
    candidates (see the module docstring).

    Each H is reverse-delete minimal, kept as far-end lists per vertex with
    loops dropped (H less its loops is still 2EC spanning), so
    |H ∩ E(g[W])| is a scan of W's H-neighbours.
    """

    def __init__(self, g: Graph, deadline: Optional[float],
                 nb: Optional[List[List[Tuple[int, int]]]] = None):
        self.g = g
        self.deadline = deadline
        self.pool: List[Dict[int, List[int]]] = []
        # every H is built on it, then it is reset
        self.arr = _EdgeArrays(g, nb)
        asc = list(range(g.m))  # array positions follow ascending edge ids
        self._add(asc)
        self._add(asc[::-1])

    def add_witness(self, inner: Sequence[int], kept: FrozenSet[int]) -> None:
        """Add a sparsification of (g − inner) ∪ kept, a 2EC spanning
        subgraph that the exact search has just found."""
        arr = self.arr
        for eid in inner:
            if eid not in kept:
                arr.remove(arr.pos[eid])
        self._add([i for i in range(self.g.m) if arr.present[i]])

    def _add(self, order: List[int]) -> None:
        # reverse delete: drop each edge in turn unless that breaks 2EC
        # (g has at least three vertices, so an end of degree < 2 does).
        # The present edges stay 2EC, so two edge-disjoint paths between
        # the dropped edge's ends test a drop; none is tried unless they
        # are 2EC to begin with.
        arr = self.arr
        nb, present, deg, eu, ev = arr.nb, arr.present, arr.deg, arr.eu, arr.ev
        if _is_2ec(nb, present):
            for i in order:
                _check_deadline(self.deadline, "certificate pool")
                arr.remove(i)
                if deg[eu[i]] < 2 or deg[ev[i]] < 2 or \
                        not _two_paths(nb, present, eu[i], ev[i]):
                    arr.restore(i)
        verts = self.g.vertices
        self.pool.append({verts[x]: [verts[w] for w, i in row
                                     if present[i] and w != x]
                          for x, row in enumerate(nb)})
        arr.reset()

    def refute(self, w: FrozenSet[int], cap: int) -> bool:
        """Does some H keep at most cap edges of g[W]?"""
        for h in self.pool:
            if sum(x in w for v in w for x in h[v]) <= 2 * cap:
                return True
        return False


def find_contractible_subgraph(g: Graph, alpha: Fraction,
                               deadline: Optional[float] = None
                               ) -> Optional[Graph]:
    """Smallest-witness alpha-contractible 2EC subgraph on <= 2/(alpha-1)
    vertices, or None.

    Tests connected vertex sets W in the order `connected_subsets` yields
    them (ascending minimum id, then extension order): for each W whose
    induced graph is 2EC, whether the minimum 2EC spanning subgraph C of
    g[W] is contractible, i.e. whether no H' ⊆ E(g[W]) with |H'| <
    |E(C)|/alpha restores 2EC of g with g[W]'s edges dropped. A
    contractible C has at least three vertices, so when 2/(alpha-1) < 3
    there is none to find.

    Most sets are never tested:
    - `_two_ended_sets` generates only the sets in which every vertex has
      two non-loop edges to W, as in every 2EC graph on three or more
      vertices (a lone one is a bridge), one anchor at a time;
    - a pool of 2EC spanning subgraphs H of g (see `_Certificates`): W is
      skipped when some H keeps fewer than |W|/alpha edges of g[W], checked
      before g[W] is tested, since |E(C)| >= |W|; and again, once C is
      known, when some H keeps fewer than |E(C)|/alpha;
    - g[W] is tested for 2EC on W's rows of g's `_index`, the one the
      call builds and the pool shares, and built only when it passes.
    A skipped set is one the exact test rejects, so the result is the same
    as without them. The pool is built at the first anchor with a set,
    from reverse-delete minimal 2EC spanning subgraphs in ascending and
    descending edge-id order, and grows by one sparsified witness each
    time the exact test rejects a set; it lives for this call. An anchor's
    sets that the pool refutes at its start are dropped, and `_preorder_key`
    sorts the rest into `connected_subsets`' order, so the exact tests and
    the pool run as on a scan of every connected set.

    Raises OracleTimeout past `deadline` (a `time.monotonic` instant; None
    means unlimited) and OracleBudgetError after `SUBSET_BUDGET` nodes of
    the set search.
    """
    kmax = math.floor(Fraction(2) / (alpha - 1))
    if kmax < 3:
        return None
    nb, vs = _index(g), g.vertices
    certs: Optional[_Certificates] = None
    for v, found in _two_ended_sets(nb, vs, kmax, deadline):
        if not found:
            continue
        if certs is None:
            certs = _Certificates(g, deadline, nb)
            nbrs = {vs[x]: sorted({vs[y] for y, _j in row if y != x})
                    for x, row in enumerate(nb)}
            pos = {x: i for i, x in enumerate(vs)}
        # the pool only grows, so what it refutes now stays refuted
        found = [w for w in found
                 if not certs.refute(w, _below(len(w), alpha))]
        found.sort(key=lambda w: _preorder_key(nbrs, v, w))
        for w in found:
            _check_deadline(deadline, "contractibility tests")
            if certs.refute(w, _below(len(w), alpha)):
                continue
            if not _is_2ec(_sub_index(nb, [pos[x] for x in w])):
                continue
            sub = g.induced(w)
            c_edges = min_2ecss(sub, deadline)
            cap = _below(len(c_edges), alpha)
            if certs.refute(w, cap):
                continue
            inner = sub.edge_ids()
            witness = min_inner_edges(g, inner, cap, deadline)
            if witness is None:
                return g.subgraph(c_edges, w)
            certs.add_witness(inner, witness[1])
    return None


# -- type classification and type optima ----------------------------------


def _with_uv(g: Graph, u: int, v: int, k: int) -> Graph:
    """g plus k virtual u–v edges, with ids above g's largest."""
    top = max(g.edge_ids(), default=-1)
    return g.with_edges([Edge(top + 1 + i, u, v) for i in range(k)])


def _complement_2ec(g_full: Graph, v1: Iterable[int], u: int, v: int,
                    k: int, full_index: Optional[List[List[Tuple[int, int]]]]
                    = None) -> bool:
    """Is g_full − (v1 ∖ {u, v}) plus k u–v edges 2EC? Tested on the
    `_index` rows of the vertices left (of `full_index` when given, which
    is g_full's), with k u–v entries appended at edge positions above every
    real one; no graph is built."""
    vs = g_full.vertices
    drop = set(v1) - {u, v}
    keep = [i for i, x in enumerate(vs) if x not in drop]
    nb = _sub_index(_index(g_full) if full_index is None else full_index,
                    keep)
    a, b = keep.index(vs.index(u)), keep.index(vs.index(v))
    for j in range(g_full.m, g_full.m + k):
        nb[a].append((b, j))
        nb[b].append((a, j))
    return _is_2ec(nb)


def _no_type_c(g1: Graph, u: int, v: int) -> bool:
    """Is there no spanning subgraph of g1 of type C w.r.t. {u, v}, as the
    2-edge-connected components of g1 show without a search?

    A type-C h is disconnected with h + 2uv 2EC, so it has two components,
    one holding u and one v, each 2EC or a lone u or v: a bridge inside
    either would be a bridge of h + 2uv too. A 2EC subgraph lies inside one
    2-edge-connected component of g1, so there is no type C when g1 has
    more than two of these, or two with u and v in one. They are the
    components of g1 less its bridges."""
    cut = bridges(g1)
    label = _labels(_index(g1), [eid not in cut for eid in g1.edge_ids()])
    count = max(label) + 1
    return count > 2 or (count == 2 and label[g1.vertices.index(u)]
                         == label[g1.vertices.index(v)])


def opt_type(g1: Graph, u: int, v: int, t: str,
             g_full: Optional[Graph] = None,
             deadline: Optional[float] = None,
             full_index: Optional[List[List[Tuple[int, int]]]] = None
             ) -> Optional[FrozenSet[int]]:
    """Minimum spanning subgraph of g1 of type t w.r.t. {u, v}, or None.

    When g_full is given, defined-ness additionally requires the complement
    side G2 = g_full − (V(g1) ∖ {u,v}) to admit a compatible type: 2EC for
    t='C' (pairs with type A), type A or B overall for t='B'/'A', that is
    G2 + uv 2EC (`_complement_2ec`, on `full_index` when the caller has
    built g_full's `_index`). For t='C', `_no_type_c` answers None before
    any search when g1's 2-edge-connected components rule type C out.
    """
    if g_full is not None and not _complement_2ec(
            g_full, g1.vertices, u, v, int(t != "C"), full_index):
        return None
    if t == "C" and _no_type_c(g1, u, v):
        return None
    return _opt_typed(g1, u, v, t, deadline)


def _opt_typed(g1: Graph, u: int, v: int, t: str,
               deadline: Optional[float]) -> Optional[FrozenSet[int]]:
    # Every type-t h is 2EC spanning once k = 0 (A), 1 (B) or 2 (C) virtual
    # u–v edges are added, so the 2EC search over g1's edges with the
    # virtual ones free never prunes one, and the first accepted leaf is the
    # (size, lex) minimum. An h with h + uv 2EC is connected (an edge joining
    # two components is a bridge), so of type A when 2EC and B when not. A C
    # leaf has one or two components, each holding u or v, and is of type C
    # when u and v lie apart. The leaf tests read h off the search's present
    # mask with the virtual positions cleared: they are the last k, since
    # their ids are above g1's.
    k = "ABC".index(t)
    g = _with_uv(g1, u, v, k)
    a, b = g1.vertices.index(u), g1.vertices.index(v)

    def accept(arr: _EdgeArrays) -> bool:
        h = arr.present[:g1.m] + [False] * k
        if t == "B":
            return not _is_2ec(arr.nb, h)
        label = _labels(arr.nb, h)
        return label[a] != label[b]

    found = _min_2ec(g, g.edge_set() - g1.edge_set(), None, deadline,
                     None if t == "A" else accept)
    return None if found is None else found[1]
