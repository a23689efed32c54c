"""Undirected multigraph with stable edge ids, plus the connectivity toolbox.

Every edge keeps its integer id through subgraph extraction and contraction,
so edge sets produced on derived graphs are directly valid on the original.
Vertices and edges are always iterated in ascending id order; "pick any"
choices elsewhere in the package resolve to the smallest id.

`_blocks` is the one lowpoint DFS in the package: it runs over the integer
positions of `_index` lists, builds no `Edge` or set, and yields each
block as it closes. Its blocks give the bridges (one-edge blocks) and
the cut vertices (vertices in two or more blocks). `two_vertex_cuts`
takes a 2-connected g only: it suppresses the vertices with two edge
ends into the edges of a branch graph B and runs the DFS once per
vertex u of B with u skipped (no B - u is built), so its cost follows
the branch vertices, not n. Over a mask of present edges, `_is_2ec` tests 2EC
and stops the DFS at the first bridge. The exact oracle removes edges
from a 2EC mask one at a time, and `_two_paths` tests each removal
locally: the rest stays 2EC exactly when two edge-disjoint paths still
join the removed edge's ends. `connected_subsets` enumerates small
connected vertex sets for the guess enumeration; its order is the one
the contractibility search tests its sets in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

# Ids at or above this are reserved for dummy vertices / virtual edges
# introduced by reductions and never appear in input instances.
VIRTUAL_BASE = 1_000_000_000


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    u: int
    v: int

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"vertex {w} not an endpoint of edge {self.id}")

    @property
    def ends(self) -> Tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def is_loop(self) -> bool:
        return self.u == self.v


class Graph:
    """Immutable undirected multigraph. Loops and parallel edges allowed.

    Edges are stored in ascending id order, so `edges()`, `edge_ids()` and
    every `incident(v)` list come out ascending without a sort.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        self._vertices: Tuple[int, ...] = tuple(sorted(set(vertices)))
        self._edges: Dict[int, Edge] = {}
        vset = set(self._vertices)
        adj: Dict[int, List[Edge]] = {v: [] for v in self._vertices}
        for e in sorted(edges, key=lambda e: e.id):
            if e.id in self._edges:
                raise ValueError(f"duplicate edge id {e.id}")
            if e.u not in vset or e.v not in vset:
                raise ValueError(f"edge {e.id} has endpoint outside vertex set")
            self._edges[e.id] = e
            adj[e.u].append(e)
            if not e.is_loop():
                adj[e.v].append(e)
        self._adj = adj

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def edge_ids(self) -> List[int]:
        return list(self._edges)

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def edge(self, eid: int) -> Edge:
        return self._edges[eid]

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def incident(self, v: int) -> List[Edge]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        # loops count twice
        return len(self._adj[v]) + sum(1 for e in self._adj[v] if e.is_loop())

    def neighbors(self, v: int) -> List[int]:
        seen = set()
        out = []
        for e in self._adj[v]:
            w = e.other(v)
            if w != v and w not in seen:
                seen.add(w)
                out.append(w)
        return sorted(out)

    def edges_between(self, u: int, v: int) -> List[Edge]:
        return [e for e in self._adj[u] if e.other(u) == v and not e.is_loop()]

    def edge_set(self) -> FrozenSet[int]:
        return frozenset(self._edges)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derivation ------------------------------------------------------

    @staticmethod
    def from_edge_list(n: int, pairs: Sequence[Tuple[int, int]]) -> "Graph":
        """Build a graph on vertices 0..n-1 with edge ids in input order."""
        return Graph(range(n), [Edge(i, u, v) for i, (u, v) in enumerate(pairs)])

    def subgraph(self, edge_ids: Iterable[int],
                 vertices: Optional[Iterable[int]] = None) -> "Graph":
        """Graph with the given edges; vertices default to their endpoints."""
        es = [self._edges[i] for i in edge_ids]
        if vertices is None:
            vs: Set[int] = set()
            for e in es:
                vs.add(e.u)
                vs.add(e.v)
        else:
            vs = set(vertices)
        return Graph(vs, es)

    def spanning(self, edge_ids: Iterable[int]) -> "Graph":
        """Subgraph on the full vertex set of self."""
        return self.subgraph(edge_ids, self._vertices)

    def induced(self, vertex_set: Iterable[int]) -> "Graph":
        vs = set(vertex_set)
        es = [e for e in self.edges() if e.u in vs and e.v in vs]
        return Graph(vs, es)

    def without_edges(self, edge_ids: Iterable[int]) -> "Graph":
        drop = set(edge_ids)
        return Graph(self._vertices, [e for e in self.edges() if e.id not in drop])

    def without_vertices(self, vertex_set: Iterable[int]) -> "Graph":
        drop = set(vertex_set)
        return Graph((v for v in self._vertices if v not in drop),
                     [e for e in self.edges() if e.u not in drop and e.v not in drop])

    def with_edges(self, extra: Iterable[Edge],
                   extra_vertices: Iterable[int] = ()) -> "Graph":
        return Graph(list(self._vertices) + list(extra_vertices),
                     self.edges() + list(extra))

    def contract(self, w: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Contract vertex set w into a single node (the smallest id in w).

        Loops created by the contraction are dropped; parallel edges are kept
        with their original ids. Returns (graph, vertex map old -> new).
        """
        ws = set(w)
        if not ws:
            raise ValueError("cannot contract empty set")
        rep = min(ws)
        vmap = {v: (rep if v in ws else v) for v in self._vertices}
        return self.quotient(vmap), vmap

    def quotient(self, node_of: Dict[int, int]) -> "Graph":
        """The graph on the nodes node_of[v]: each edge joins the nodes of
        its ends and keeps its id; an edge whose ends share a node is
        dropped."""
        return Graph([node_of[v] for v in self._vertices],
                     [Edge(e.id, node_of[e.u], node_of[e.v])
                      for e in self.edges() if node_of[e.u] != node_of[e.v]])


# -- connectivity primitives ---------------------------------------------


def components(g: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by smallest id."""
    seen: Set[int] = set()
    out = []
    for s in g.vertices:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                w = e.other(v)
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def _index(g: Graph) -> List[List[Tuple[int, int]]]:
    """(neighbour position, edge position) pairs per vertex position, in
    ascending edge order; a loop is listed once, at its vertex."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    nb: List[List[Tuple[int, int]]] = [[] for _ in pos]
    for j, e in enumerate(g.edges()):
        a, b = pos[e.u], pos[e.v]
        nb[a].append((b, j))
        if a != b:
            nb[b].append((a, j))
    return nb


def _sub_index(nb: List[List[Tuple[int, int]]],
               xs: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """The `_index` lists of the subgraph induced by the vertex positions
    xs, renumbered in the order of xs; edge positions stay those of nb."""
    loc = {x: i for i, x in enumerate(xs)}
    return [[(loc[w], j) for w, j in nb[x] if w in loc] for x in xs]


def _labels(nb: List[List[Tuple[int, int]]],
            present: List[bool]) -> List[int]:
    """The connected component of each vertex position over the edges that
    `present` marks, numbered from 0 in the order of their first vertex."""
    label = [-1] * len(nb)
    c = 0
    for s in range(len(nb)):
        if label[s] >= 0:
            continue
        label[s] = c
        queue = [s]
        for x in queue:
            for w, j in nb[x]:
                if label[w] < 0 and present[j]:
                    label[w] = c
                    queue.append(w)
        c += 1
    return label


def _blocks(nb: List[List[Tuple[int, int]]], skip: int = -1,
            present: Optional[List[bool]] = None) -> Iterator[List[int]]:
    """Lowpoint DFS (Tarjan 1972) on `_index` lists, with a vertex stack: a
    tree edge p-v closes the block of p and the vertices stacked since v
    when no edge below v reaches above p. Yields each block as it closes,
    led by its top vertex p. `skip` is marked visited with a time above all
    others: the DFS runs on g - skip. With `present`, only the edges it
    marks are walked. A loop never lowers a lowpoint: its far end is v."""
    n = len(nb)
    disc, low = [-1] * n, [0] * n
    if skip >= 0:
        disc[skip] = n
    t = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = t
        t += 1
        vstack = [root]
        # frames: (vertex, tree edge in or -1, edges left, vstack height)
        stack = [(root, -1, iter(nb[root]), 0)]
        while stack:
            v, in_e, it, at = stack[-1]
            for w, j in it:
                if present is not None and not present[j]:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = t
                    t += 1
                    stack.append((w, j, iter(nb[w]), len(vstack)))
                    vstack.append(w)
                    break
                if j != in_e and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                # v is finished; propagate its lowpoint to the parent
                stack.pop()
                if in_e < 0:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    yield [p] + vstack[at:]
                    del vstack[at:]


def _is_2ec(nb: List[List[Tuple[int, int]]],
            present: Optional[List[bool]] = None) -> bool:
    """Connected and bridgeless on `_index` lists, over the edges `present`
    marks (all when None); a single vertex counts as 2EC. n - 1 vertices
    lie in a block but not as its top (all but the root), and every
    two-vertex block has parallel edges. Stops at the first block that
    has not, so a bridge ends the DFS where it closes."""
    below = 0
    for b in _blocks(nb, present=present):
        if len(b) == 2 and [w for w, j in nb[b[1]] if present is None
                            or present[j]].count(b[0]) < 2:
            return False
        below += len(b) - 1
    return below >= len(nb) - 1


def _two_paths(nb: List[List[Tuple[int, int]]], present: List[bool],
               a: int, b: int) -> bool:
    """Do the present edges hold two edge-disjoint a-b paths? Always for
    a = b. Two augmenting paths of unit capacity (Ford-Fulkerson): a BFS
    finds one path, then a second search may walk each edge of that path
    only from its head back to its tail.

    It decides whether H - ab is 2EC for a 2EC mask H less an edge ab:
    H - ab is connected, and a bridge f of it separates a from b, since
    H - f is connected (Menger)."""
    if a == b:
        return True
    n = len(nb)
    up, into = [-1] * n, [-1] * n   # first path: parent and edge position
    up[a] = a
    queue = [a]
    for x in queue:
        for w, j in nb[x]:
            if up[w] < 0 and present[j]:
                up[w], into[w] = x, j
                if w == b:
                    break
                queue.append(w)
        else:
            continue
        break
    else:
        return False
    tail = [-1] * len(present)      # the tail of each edge of the path
    x = b
    while x != a:
        tail[into[x]] = x = up[x]
    seen = [False] * n
    seen[a] = True
    queue = [a]
    for x in queue:
        for w, j in nb[x]:
            if not seen[w] and present[j] and tail[j] != x:
                if w == b:
                    return True
                seen[w] = True
                queue.append(w)
    return False


def biconnected_blocks(g: Graph) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Blocks of g as (vertex set, edge ids), in the order the DFS closes them.

    A block is a maximal 2-vertex-connected piece or a single bridge. Loops
    lie in no block; parallel edges land in one block. One `_blocks` run:
    two blocks share at most one vertex, so a block's edges are the
    non-loop edges with both ends in it, each at an end that is not its top.
    """
    nb = _index(g)
    vs, ids = g.vertices, g.edge_ids()
    out = []
    for b in _blocks(nb):
        inside = set(b)
        out.append((frozenset(vs[x] for x in b), frozenset(
            ids[j] for x in b[1:] for w, j in nb[x]
            if w != x and w in inside)))
    return out


def bridges(g: Graph) -> Set[int]:
    """Edge ids whose removal disconnects their component: the one-edge
    blocks. An edge with a parallel partner and a loop are never bridges."""
    return {eid for _vs, es in biconnected_blocks(g) if len(es) == 1
            for eid in es}


def is_2ec(g: Graph) -> bool:
    """Connected and bridgeless; a single vertex counts as 2EC."""
    return _is_2ec(_index(g))


def cut_vertices(g: Graph) -> Set[int]:
    """Articulation points: the vertices that lie in two or more blocks."""
    count = Counter(x for b in _blocks(_index(g)) for x in b)
    return {g.vertices[x] for x, c in count.items() if c >= 2}


def is_2vc(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and not cut_vertices(g)


def two_vertex_cuts(g: Graph) -> List[Tuple[Tuple[int, int], str]]:
    """All 2-vertex cuts of a 2-connected g (n >= 3, connected, no cut
    vertex; ValueError otherwise, found by one block DFS of g), classified
    'isolating' / 'non_isolating', pairs in lexicographic order.

    {a,b} is a cut if g - {a,b} has k >= 2 components; isolating means
    k = 2 and one of them a single vertex x, that is N(x) = {a,b}. A chain
    vertex has two non-loop edge ends, to distinct neighbours; the rest are
    branch vertices. If there are none, g is a cycle and the cuts are the
    non-adjacent pairs. Otherwise each maximal path through chain vertices
    (its inner vertices) is one edge of the branch graph B, a loopless
    multigraph that is 2-connected, so bridgeless, and k is read off B:
    - branch u, v: the blocks of B - u that hold v (one block DFS of B - u
      per branch u), plus one per chain with inner vertices from u to v;
    - branch u, inner x of chain c: 2 when c ends at u and x is not next to
      u, or when c is a bridge of B - u;
    - inner x, y of chains c != d: 2 when {c, d} is a 2-edge cut of B, that
      is when their cycle-space labels (one bit per non-tree edge of a BFS
      tree; a tree edge has the XOR of the bits of the cycles through it)
      are equal;
    - inner x, y of one chain: 2 when a vertex lies between them.
    Cost: O(n + m) plus O(b (b + m_B)) for b branch vertices and m_B edges
    of B, plus the sort of the pairs found.
    """
    vs, n = g.vertices, g.n
    nb = _index(g)
    if n < 3 or [len(b) for b in _blocks(nb)] != [n]:
        raise ValueError("two_vertex_cuts needs a 2-connected graph")
    far = [[w for w, _j in row if w != x] for x, row in enumerate(nb)]
    # a pair (a, b), a < b, is the key a * n + b; with k = 2 it isolates
    # when some x has N(x) = {a, b}
    iso = {min(f) * n + max(f) for f in map(set, far) if len(f) == 2}
    chain = [len(f) == 2 and f[0] != f[1] for f in far]
    branch = [x for x in range(n) if not chain[x]]
    cut: List[int] = []
    many: Set[int] = set()   # keys with k > 2
    if not branch:
        cut = [a * n + b for a in range(n) for b in range(a + 1, n)
               if b not in far[a]]
    # B-edge c has the chain vertices inner[c], in order from B-vertex
    # ends[c][0] to ends[c][1]; nbb is B's `_index`, B-vertex i is branch[i]
    bpos = {x: i for i, x in enumerate(branch)}
    nbb: List[List[Tuple[int, int]]] = [[] for _ in branch]
    inner: List[List[int]] = []
    ends: List[Tuple[int, int]] = []
    done = [False] * g.m
    for p in branch:
        for w, j in nb[p]:
            if w == p or done[j]:
                continue
            path, x = [], w
            while chain[x]:
                path.append(x)
                (y, i), (z, h) = [t for t in nb[x] if t[0] != x]
                j, x = (h, z) if i == j else (i, y)
            done[j] = True
            c, a, b = len(inner), bpos[p], bpos[x]
            inner.append(path)
            ends.append((a, b))
            nbb[a].append((b, c))
            nbb[b].append((a, c))

    def join(a: int, xs: List[int]) -> None:
        cut.extend([a * n + x if a < x else x * n + a for x in xs])

    for u, p in enumerate(branch):
        # k - 1 per branch v: the blocks of B - u that v tops, less one at
        # the DFS root (B - u is connected, so every other vertex lies in
        # one block it does not top), plus the chains with inner vertices
        # from u to v
        more = {1 if u == 0 else 0: -1}
        for blk in _blocks(nbb, u):
            more[blk[0]] = more.get(blk[0], 0) + 1
            if len(blk) == 2:
                cs = [c for y, c in nbb[blk[1]] if y == blk[0]]
                if len(cs) == 1 and inner[cs[0]]:   # a bridge of B - u
                    join(p, inner[cs[0]])
        for w, c in nbb[u]:
            path = inner[c]
            if path:
                more[w] = more.get(w, 0) + 1
                join(p, path[1:] if ends[c][0] == u else path[:-1])
        for v, k in more.items():
            if k > 0 and v > u:
                cut.append(p * n + branch[v])
                if k > 1:
                    many.add(p * n + branch[v])
    for path in inner:
        for i, x in enumerate(path):
            join(x, path[i + 2:])
    label, acc = [0] * len(inner), [0] * len(branch)
    order, tree = [0] if branch else [], [-1] * len(branch)
    for x in order:                   # BFS tree of B from B-vertex 0
        for w, c in nbb[x]:
            if w and tree[w] < 0:
                tree[w] = c
                order.append(w)
    intree = set(tree)
    for c, (a, b) in enumerate(ends):
        if c not in intree:
            label[c] = 1 << c
            acc[a] ^= label[c]
            acc[b] ^= label[c]
    for x in reversed(order[1:]):
        c = tree[x]
        label[c] = acc[x]
        a, b = ends[c]
        acc[a if b == x else b] ^= acc[x]
    same: Dict[int, List[List[int]]] = {}
    for c, path in enumerate(inner):
        if path:
            same.setdefault(label[c], []).append(path)
    for paths in same.values():
        for i, path in enumerate(paths):
            for other in paths[i + 1:]:
                for x in path:
                    join(x, other)
    out = []
    for key in sorted(cut):
        a, b = divmod(key, n)
        out.append(((vs[a], vs[b]), "isolating" if key in iso
                    and key not in many else "non_isolating"))
    return out


def find_irrelevant_edge(g: Graph, cuts: List[Tuple[Tuple[int, int], str]]
                         ) -> Optional[List[int]]:
    """Sorted ids of the edges uv whose ends are a listed 2-vertex cut, or
    None when there are none; `cuts` is `two_vertex_cuts(g)`."""
    pairs = {pair for pair, _kind in cuts}
    ids = [e.id for e in g.edges() if e.ends in pairs]
    return ids or None


def connected_subsets(g: Graph, kmax: int) -> Iterator[FrozenSet[int]]:
    """Every connected vertex set with at most kmax vertices, each once;
    nothing when kmax < 1.

    For each anchor v (ascending), the sets whose minimum vertex is v, grown
    by neighbourhood extension in preorder: a set comes before its
    extensions. A vertex skipped at one level is banned below its later
    siblings, which kills duplicates. The preorder runs on one explicit
    stack of frames (set, extension list, next index, banned set), so a
    yield costs no climb through nested generators.
    """
    if kmax < 1:
        return
    nbrs = {v: g.neighbors(v) for v in g.vertices}
    for v in g.vertices:
        root = frozenset((v,))
        yield root
        if kmax == 1:
            continue
        stack = [[root, [x for x in nbrs[v] if x > v], 0, set()]]
        while stack:
            frame = stack[-1]
            current, ext, i, banned = frame
            if i == len(ext):
                stack.pop()
                continue
            frame[2] = i + 1
            u = ext[i]
            grown = current | {u}
            yield grown
            if len(grown) < kmax:
                # later siblings, then u's new neighbours; banned holds the
                # earlier siblings and what the ancestors banned
                new_ext = ext[i + 1:]
                for x in nbrs[u]:
                    if x > v and x not in grown and x not in banned \
                            and x not in new_ext:
                        new_ext.append(x)
                if new_ext:
                    stack.append([grown, new_ext, 0, set(banned)])
            banned.add(u)


def hamiltonian_path(g: Graph, w: Iterable[int], u: int, v: int) -> Optional[List[int]]:
    """A Hamiltonian u,v-path in g[w], or None. Bitmask DP, |w| <= 8.

    A path with u = v exists only for w = {u}. Of several paths it returns
    the one that, walked back from v, steps each time to the smallest
    neighbour at which some u-path through the vertices not yet walked
    ends."""
    ws = sorted(set(w))
    k = len(ws)
    if k > 8:
        raise ValueError("hamiltonian_path capped at 8 vertices")
    if u not in ws or v not in ws:
        return None
    idx = {x: i for i, x in enumerate(ws)}
    nbr = [0] * k
    for x in ws:
        for y in g.neighbors(x):
            if y in idx:
                nbr[idx[x]] |= 1 << idx[y]
    ui, vi = idx[u], idx[v]
    start, full = 1 << ui, (1 << k) - 1
    # reach[mask]: the possible last vertices of a path from u through
    # exactly mask; every predecessor of a mask is a smaller number
    reach = [0] * (full + 1)
    reach[start] = start
    for mask in range(start, full + 1):
        lasts = reach[mask]
        while lasts:
            last = (lasts & -lasts).bit_length() - 1
            lasts &= lasts - 1
            ext = nbr[last] & ~mask
            while ext:
                bit = ext & -ext
                ext ^= bit
                reach[mask | bit] |= bit
    if not (reach[full] >> vi) & 1:
        return None
    path = [vi]
    mask, last = full, vi
    while mask != start:
        mask ^= 1 << last
        prev = reach[mask] & nbr[last]
        last = (prev & -prev).bit_length() - 1
        path.append(last)
    path.reverse()
    return [ws[i] for i in path]


def path_edge_ids(g: Graph, path: Sequence[int]) -> Set[int]:
    """The smallest-id edge between each two consecutive vertices of path."""
    return {min(e.id for e in g.edges_between(a, b))
            for a, b in zip(path, path[1:])}


def find_cross_matching(g: Graph, v1: Iterable[int], v2: Iterable[int],
                        k: int, require: Optional[int] = None) -> Optional[List[Edge]]:
    """A matching of size >= k among g-edges between v1 and v2, or None.

    Augmenting-path bipartite matching, deterministic. If `require` is given
    (a v1 vertex), its augmentation is attempted first so it stays matched
    whenever some maximum matching covers it.
    """
    a = sorted(set(v1))
    bset = set(v2)
    cross: Dict[int, List[Edge]] = {}
    for x in a:
        cross[x] = [e for e in g.incident(x) if e.other(x) in bset and not e.is_loop()]
    match_b: Dict[int, Tuple[int, Edge]] = {}  # b vertex -> (a vertex, edge)
    match_a: Dict[int, Edge] = {}

    def augment(x: int, seen: Set[int]) -> bool:
        for e in cross[x]:
            y = e.other(x)
            if y in seen:
                continue
            seen.add(y)
            if y not in match_b or augment(match_b[y][0], seen):
                match_b[y] = (x, e)
                match_a[x] = e
                return True
        return False

    order = a
    if require is not None:
        order = [require] + [x for x in a if x != require]
    for x in order:
        augment(x, set())
    out = sorted(match_a.values(), key=lambda e: e.id)
    if len(out) >= k:
        return out[:k] if require is None else out
    return None


def path_avoiding(h: Graph, sources: Iterable[int], targets: Iterable[int],
                  avoid: Iterable[int]) -> Optional[List[Edge]]:
    """BFS path (as edge list) from a source to a target avoiding `avoid`.

    Returns the edge sequence; empty list if some source is itself a target.
    """
    av = set(avoid)
    src = [s for s in sorted(set(sources)) if s not in av]
    tgt = set(targets) - av
    if not src or not tgt:
        return None
    for s in src:
        if s in tgt:
            return []
    prev: Dict[int, Tuple[int, Edge]] = {}
    seen = set(src)
    queue = list(src)
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for e in h.incident(x):
            y = e.other(x)
            if y in av or y in seen or e.is_loop():
                continue
            seen.add(y)
            prev[y] = (x, e)
            if y in tgt:
                path = []
                cur = y
                while cur not in src:
                    px, pe = prev[cur]
                    path.append(pe)
                    cur = px
                path.reverse()
                return path
            queue.append(y)
    return None


class FlowNet:
    """Tiny unit-capacity flow network with edge tags for path recovery.

    Arcs are directed, capacity 1 each. Used for node-disjoint path searches
    on desk-sized component graphs; deterministic (arcs kept in insert order).
    """

    def __init__(self):
        # arc: [head, tail, cap, tag]; reverse arcs at odd indices
        self.arcs: List[List] = []
        self.out: Dict[Tuple, List[int]] = {}

    def add_arc(self, u, v, tag):
        i = len(self.arcs)
        self.arcs.append([u, v, 1, tag])
        self.arcs.append([v, u, 0, tag])
        self.out.setdefault(u, []).append(i)
        self.out.setdefault(v, []).append(i + 1)

    def max_flow(self, src, snk, limit: int) -> int:
        total = 0
        while total < limit:
            prev: Dict[Tuple, int] = {src: -1}
            queue = [src]
            qi = 0
            while qi < len(queue) and snk not in prev:
                u = queue[qi]
                qi += 1
                for ai in self.out.get(u, []):
                    arc = self.arcs[ai]
                    if arc[2] > 0 and arc[1] not in prev:
                        prev[arc[1]] = ai
                        queue.append(arc[1])
            if snk not in prev:
                break
            v = snk
            while v != src:
                ai = prev[v]
                self.arcs[ai][2] -= 1
                self.arcs[ai ^ 1][2] += 1
                v = self.arcs[ai][0]
            total += 1
        return total

    def flow_on(self, ai: int) -> int:
        # forward arcs sit at even indices with original capacity 1
        return 1 - self.arcs[ai][2] if ai % 2 == 0 else 0

    def two_paths(self, src, snk) -> Tuple[List[Edge], List[Edge]]:
        """Decompose a 2-unit flow into two tagged paths (Edge tags only)."""
        used = [False] * len(self.arcs)
        paths = []
        for _ in range(2):
            path: List[Edge] = []
            u = src
            while u != snk:
                step = None
                for ai in self.out.get(u, []):
                    if ai % 2 == 0 and not used[ai] and self.flow_on(ai) > 0:
                        step = ai
                        break
                if step is None:
                    raise AssertionError("flow decomposition failed")
                used[step] = True
                tag = self.arcs[step][3]
                if tag is not None:
                    path.append(tag)
                u = self.arcs[step][1]
            paths.append(path)
        return paths[0], paths[1]
