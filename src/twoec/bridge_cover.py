"""Bridge elimination on a canonical 2-edge cover.

Works one bridged component at a time. The component's 2EC blocks and
every other component of the cover are contracted; the bridges then form
a tree in the contraction. An augmenting path that runs outside the tree
and ends on two tree nodes turns every bridge between its endpoints into
cycle edges. A path is worth taking outright when the credits it frees
(a quarter per bridge, one per block) pay for the two new credits the
merged piece needs; when no single path is that good, two carefully
chosen paths are combined, occasionally deleting one bridge outright.
Every move strictly reduces the bridge count and never raises the cost,
so the loop ends with every component 2-edge-connected.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import InternalContradiction
from .graph import Graph
from .cover import canonical_violations, cover_cost, pieces, _is_coarsening


@dataclass
class TcTree:
    """Contraction of the host graph g around one bridged cover component.

    gc: the contracted multigraph; node names are smallest original
    vertices (of a block, of a lonely vertex, or of another component).
    tc_nodes: the tree nodes, tagged "block" or "lonely". tc_edges: the
    bridge edge ids, which induce the tree.
    """
    g: Graph
    gc: Graph
    tree: Graph
    tc_nodes: Dict[int, str]
    tc_edges: FrozenSet[int]


@dataclass(frozen=True)
class BridgeCoverMove:
    added: FrozenSet[int]
    removed: FrozenSet[int]
    bound: Fraction            # guaranteed lower bound on the cost drop
    cost_delta: Fraction       # exact cover_cost drop, equals bound or better
    rule: str


@dataclass(frozen=True)
class _Path:
    """A concrete augmenting path: host edge ids plus the contracted
    nodes it passes through (all outside the tree)."""
    edges: Tuple[int, ...]
    internals: Tuple[int, ...]


def build_tc(g: Graph, s: FrozenSet[int], c: Iterable[int]) -> TcTree:
    """Contract blocks of the cover component c and all other components."""
    ps = pieces(g, s)
    vertex_node = {v: p.vertices[0] for p in ps for v in p.vertices}
    home = vertex_node[min(c)]
    piece = next(p for p in ps if p.vertices[0] == home)
    if not piece.bridges:
        raise ValueError("component has no bridge")
    tc_nodes: Dict[int, str] = {}
    for vs, _es in piece.blocks:
        tc_nodes[min(vs)] = "block"
        for v in vs:
            vertex_node[v] = min(vs)
    for v in piece.lonely:
        tc_nodes[v] = "lonely"
        vertex_node[v] = v
    tree = g.subgraph(piece.bridges, piece.vertices).quotient(vertex_node)
    if tree.m != tree.n - 1:
        raise InternalContradiction("bridges of a component do not form a tree",
                                    counterexample=(g, s, piece.vertices))
    for v in tree.vertices:
        if tree.degree(v) == 1 and tc_nodes[v] != "block":
            raise InternalContradiction("tree leaf is not a block",
                                        counterexample=(g, s, v))
    return TcTree(g, g.quotient(vertex_node), tree, tc_nodes, piece.bridges)


def _reach_paths(tc: TcTree, w: Iterable[int],
                 allowed: Optional[Set[int]] = None) -> Dict[int, _Path]:
    """Shortest augmenting path from the tree-node set w to every tree
    node it can reach.

    BFS from w through contracted non-tree nodes, never along a bridge,
    with one terminal hop back onto the tree. Restricting to `allowed`
    edge ids searches inside a designated sub-multigraph.
    """
    wset = set(w)
    found: Dict[int, _Path] = {}
    seen: Set[int] = set()
    queue: deque = deque()

    def scan(node: int, eds: Tuple[int, ...], ins: Tuple[int, ...]) -> None:
        for e in tc.gc.incident(node):
            if e.id in tc.tc_edges:
                continue
            if allowed is not None and e.id not in allowed:
                continue
            y = e.other(node)
            if y in tc.tc_nodes:
                if y not in wset and y not in found:
                    found[y] = _Path(eds + (e.id,), ins)
            elif y not in seen:
                seen.add(y)
                queue.append((y, eds + (e.id,), ins + (y,)))

    for x in sorted(wset):
        scan(x, (), ())
    while queue:
        node, eds, ins = queue.popleft()
        scan(node, eds, ins)
    return found


def _tree_dists(tree: Graph, src: int
                ) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
    dist = {src: 0}
    par: Dict[int, Tuple[int, int]] = {}
    q = deque([src])
    while q:
        x = q.popleft()
        for e in tree.incident(x):
            y = e.other(x)
            if y not in dist:
                dist[y] = dist[x] + 1
                par[y] = (x, e.id)
                q.append(y)
    return dist, par


def _tree_path(tc: TcTree, u: int, v: int) -> Tuple[int, int, List[int]]:
    """(bridge count, block count incl. endpoints, edge ids) on the tree
    path between u and v."""
    _, par = _tree_dists(tc.tree, u)
    nodes = [v]
    eids = []
    while nodes[-1] != u:
        x, eid = par[nodes[-1]]
        eids.append(eid)
        nodes.append(x)
    bl = sum(1 for x in nodes if tc.tc_nodes[x] == "block")
    return len(eids), bl, list(reversed(eids))


def _gain(br: int, bl: int) -> Fraction:
    return Fraction(br, 4) + bl - 2


def find_cheap_path(tc: TcTree) -> Optional[BridgeCoverMove]:
    """First augmenting path, in endpoint-id order, that pays for itself.

    The move's cost_delta is the guaranteed bound (1/4)br + bl - 2; the
    caller recomputes the exact delta once the host cover is in hand.
    """
    reach = {u: _reach_paths(tc, {u}) for u in sorted(tc.tc_nodes)}
    for u in sorted(tc.tc_nodes):
        for v in sorted(reach[u]):
            br, bl, _ = _tree_path(tc, u, v)
            gain = _gain(br, bl)
            if gain >= 0:
                return BridgeCoverMove(frozenset(reach[u][v].edges),
                                       frozenset(), gain, gain, "cheap_path")
    return None


def _longest_tree_path(tc: TcTree) -> List[int]:
    """A longest path in the tree, smaller-id endpoint first."""
    start = min(tc.tree.vertices)
    d0, _ = _tree_dists(tc.tree, start)
    far = max(d0.values())
    a = min(v for v, d in d0.items() if d == far)
    d1, par = _tree_dists(tc.tree, a)
    far = max(d1.values())
    b = min(v for v, d in d1.items() if d == far)
    path = [b]
    while path[-1] != a:
        path.append(par[path[-1]][0])
    if path[0] > path[-1]:
        path.reverse()
    return path


def _branch_partition(tc: TcTree, path: List[int]) -> Dict[int, Set[int]]:
    """Nodes hanging off path[i] (i >= 1), grouped by attachment index.

    One BFS of the tree from the whole path: each branch meets the path
    at one node, whose index its nodes inherit."""
    attach = {v: i for i, v in enumerate(path)}
    queue = deque(path)
    out: Dict[int, Set[int]] = {}
    while queue:
        x = queue.popleft()
        for y in tc.tree.neighbors(x):
            if y not in attach:
                attach[y] = attach[x]
                out.setdefault(attach[y], set()).add(y)
                queue.append(y)
    if 0 in out:
        raise InternalContradiction("branch not attached to spine interior",
                                    counterexample=(tc.g, path))
    return out


def merge_two_paths(tc: TcTree, b: int, bp: int, u: int, up: int
                    ) -> Tuple[FrozenSet[int], Fraction, str]:
    """Combine augmenting paths b-u and bp-up into one move.

    If the two paths share an internal node, a single block-to-block path
    exists inside their union and is emitted instead (it involves two
    blocks, so it pays for itself). Otherwise both paths are added; the
    tree paths they cover must hold at least 4 bridges in total.
    """
    p1 = _reach_paths(tc, {b}).get(u)
    p2 = _reach_paths(tc, {bp}).get(up)
    if p1 is None or p2 is None:
        raise InternalContradiction("expected augmenting path is missing",
                                    counterexample=(tc.g, b, bp, u, up))
    if set(p1.internals) & set(p2.internals):
        allowed = set(p1.edges) | set(p2.edges)
        short = _reach_paths(tc, {b}, allowed=allowed).get(bp)
        if short is None:
            raise InternalContradiction("shared paths without a block link",
                                        counterexample=(tc.g, b, bp, u, up))
        br, bl, _ = _tree_path(tc, b, bp)
        gain = _gain(br, bl)
        if gain < 0:
            raise InternalContradiction("block-to-block path came out costly",
                                        counterexample=(tc.g, b, bp))
        return frozenset(short.edges), gain, "merge_shared"
    br1, _, t1 = _tree_path(tc, b, u)
    br2, _, t2 = _tree_path(tc, bp, up)
    covered = set(t1) | set(t2)
    if len(covered) < 4:
        raise InternalContradiction("two-path merge covers under 4 bridges",
                                    counterexample=(tc.g, b, bp, u, up))
    return frozenset(p1.edges) | frozenset(p2.edges), Fraction(0), "merge_two_paths"


# Merging the two heaviest blocks of a component that stays bridged can
# leave it with a single block of 6+ edges until the next move catches
# up; nothing in this stage reads that property, so it alone is allowed
# to lapse between moves.
_TRANSIENT = "too_few_big_blocks"


def _finalize(g: Graph, s: FrozenSet[int], added: FrozenSet[int],
              removed: FrozenSet[int], bound: Fraction, rule: str
              ) -> BridgeCoverMove:
    new_s = (s | added) - removed
    old_br = {b for p in pieces(g, s) for b in p.bridges}
    new_br = {b for p in pieces(g, new_s) for b in p.bridges}
    if not (new_br < old_br):
        raise InternalContradiction("move did not strictly reduce bridges",
                                    counterexample=(g, s, added, removed))
    delta = cover_cost(g, s) - cover_cost(g, new_s)
    if delta < bound:
        raise InternalContradiction(
            f"move accounting broke: delta {delta} < bound {bound}",
            counterexample=(g, s, added, removed))
    if not _is_coarsening(g, new_s, s):
        raise InternalContradiction("move split a component",
                                    counterexample=(g, s, added, removed))
    bad = [v for v in canonical_violations(g, new_s) if v[0] != _TRANSIENT]
    if bad:
        raise InternalContradiction(f"move left a non-canonical cover: {bad}",
                                    counterexample=(g, s, added, removed))
    return BridgeCoverMove(added, removed, bound, delta, rule)


def cover_step(g: Graph, s: FrozenSet[int], c: Iterable[int]) -> BridgeCoverMove:
    """One cost-neutral move that reduces the bridges of component c.

    A cheap path when there is one. Otherwise, on a longest tree path
    b, u1, u2, ..., the paths from b and from a partner block bp merge
    (`merge_two_paths`): bp beside a lonely node that b reaches near u1,
    u2, else a leaf of a branch there, else a block that {b, u1} reaches.
    With none of these, two paths replace the bridge u1-u2.
    """
    tc = build_tc(g, s, c)
    mv = find_cheap_path(tc)
    if mv is not None:
        return _finalize(g, s, mv.added, mv.removed, mv.bound, mv.rule)

    path = _longest_tree_path(tc)
    b = path[0]
    if tc.tc_nodes[b] != "block":
        raise InternalContradiction("longest-path end is not a block",
                                    counterexample=(g, path))
    rb = _reach_paths(tc, {b})
    if not rb:
        raise InternalContradiction("leaf block reaches nothing",
                                    counterexample=(g, s, b))
    for u in rb:
        if tc.tc_nodes[u] == "block":
            raise InternalContradiction("block reachable yet no cheap path",
                                        counterexample=(g, b, u))
    spine = path[1:]                       # u1, u2, ...
    branches = _branch_partition(tc, path)
    near = branches.get(1, set()) | branches.get(2, set())
    u123 = set(spine[:3])

    stray = sorted(u for u in rb if u not in u123 and u not in near)
    if stray:
        # four or more bridges from b would have made a cheap path
        raise InternalContradiction("distant node reachable yet no cheap path",
                                    counterexample=(g, b, stray))

    in_near = sorted(u for u in rb if u in near)
    if in_near:
        u = in_near[0]
        if tc.tc_nodes[u] != "lonely":
            raise InternalContradiction("near reachable node is a block",
                                        counterexample=(g, b, u))
        cands = [x for x in tc.tree.neighbors(u)
                 if tc.tree.degree(x) == 1 and x in near]
        if not cands:
            raise InternalContradiction("no leaf block beside reachable node",
                                        counterexample=(g, b, u))
        bp = cands[0]
        rbp = _reach_paths(tc, {bp})
        ups = [x for x in sorted(rbp)
               if x not in (bp, b, u) and tc.tc_nodes[x] == "lonely"]
        if not ups:
            raise InternalContradiction("side block has no usable partner",
                                        counterexample=(g, b, bp))
        partner = (bp, u, ups[0])
    elif near:
        leaves = [x for x in sorted(near) if tc.tree.degree(x) == 1]
        if not leaves:
            raise InternalContradiction("near branch without a leaf",
                                        counterexample=(g, sorted(near)))
        bp = leaves[0]
        lp = tc.tree.neighbors(bp)[0]
        rbp = _reach_paths(tc, {bp})
        ups = [x for x in sorted(rbp) if x != lp]
        for x in ups:
            if tc.tc_nodes[x] == "block":
                raise InternalContradiction("block reachable yet no cheap path",
                                            counterexample=(g, bp, x))
        if not ups or len(spine) < 3 or spine[2] not in rb:
            raise InternalContradiction("side-branch merge has no partner",
                                        counterexample=(g, b, bp))
        partner = (bp, spine[2], ups[0])
    else:
        # bare spine near b: work with paths from {b, u1}
        u1 = spine[0]
        rw = _reach_paths(tc, {b, u1})
        blocks_rw = [x for x in sorted(rw) if tc.tc_nodes[x] == "block"]
        if not blocks_rw:
            banned = set(spine[1:3])               # u2, and u3 when present
            ups = [x for x in sorted(rw) if x not in banned]
            if not ups or len(spine) < 2 or spine[1] not in rb:
                raise InternalContradiction("two-path swap has no usable partner",
                                            counterexample=(g, s, b))
            up = ups[0]
            p1 = rb[spine[1]]                      # b to u2
            p2 = _reach_paths(tc, {u1}).get(up)
            if p2 is None:
                raise InternalContradiction("partner not reachable from u1",
                                            counterexample=(g, b, up))
            if set(p1.internals) & set(p2.internals):
                raise InternalContradiction("swap paths intersect",
                                            counterexample=(g, b, up))
            between = tc.tree.edges_between(u1, spine[1])
            if not between:
                raise InternalContradiction("missing spine bridge",
                                            counterexample=(g, path))
            added = frozenset(p1.edges) | frozenset(p2.edges)
            return _finalize(g, s, added, frozenset([between[0].id]),
                             Fraction(0), "two_path_swap")
        bp = blocks_rw[0]
        if len(spine) < 2 or spine[1] not in rb:
            raise InternalContradiction("spine merge partner missing",
                                        counterexample=(g, b, bp))
        partner = (bp, spine[1], u1)
    added, bound, rule = merge_two_paths(tc, b, *partner)
    return _finalize(g, s, added, frozenset(), bound, rule)


def cover_all(g: Graph, cover: FrozenSet[int],
              moves: Optional[List[BridgeCoverMove]] = None) -> FrozenSet[int]:
    """Apply cover_step until every component is 2-edge-connected."""
    cur = cover
    budget = sum(len(p.bridges) for p in pieces(g, cur)) + 1
    while True:
        bridged = [p for p in pieces(g, cur) if p.bridges]
        if not bridged:
            break
        budget -= 1
        if budget <= 0:
            raise InternalContradiction("bridge elimination failed to make "
                                        "progress", counterexample=(g, cur))
        mv = cover_step(g, cur, bridged[0].vertices)
        if moves is not None:
            moves.append(mv)
        cur = (cur | mv.added) - mv.removed

    if cover_cost(g, cur) > cover_cost(g, cover):
        raise InternalContradiction("bridge elimination raised the cost",
                                    counterexample=(g, cover, cur))
    bad = canonical_violations(g, cur)
    if bad:
        raise InternalContradiction(f"output cover not canonical: {bad}",
                                    counterexample=(g, cur))
    return cur
