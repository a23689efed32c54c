"""Merge the 2EC components of a bridgeless cover into one spanning subgraph.

Works on the component graph: each component of the cover is contracted to
a single node named by its smallest vertex.  Every merge routes a cycle
through a 2-vertex-connected block of that contraction, pays for the new
edges with component credits, and sometimes claws an edge back by replacing
a short cycle component with a Hamiltonian path or by deleting a now
redundant cycle edge.  Cost never increases and the component count drops
with every move.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import InternalContradiction
from .cover import canonical_violations, component_credit, cover_cost, pieces
from .graph import (Edge, FlowNet, Graph, _blocks, _index,
                    find_cross_matching, hamiltonian_path, is_2ec,
                    path_avoiding, path_edge_ids)


@dataclass(frozen=True)
class GlueMove:
    added: FrozenSet[int]
    removed: FrozenSet[int]
    cost_delta: Fraction
    rule: str


@dataclass
class ComponentGraph:
    """Contraction of g where each component of the edge set s is one node.

    Nodes are named by the smallest original vertex of their component.
    Edges keep original g ids; loops dropped, parallels kept.
    """
    graph: Graph
    node_vertices: Dict[int, FrozenSet[int]]   # node -> original vertices
    vertex_node: Dict[int, int]                # original vertex -> node

    def node_of(self, v: int) -> int:
        return self.vertex_node[v]


def component_graph(g: Graph, s: FrozenSet[int]) -> ComponentGraph:
    """The components of s as `cover.pieces` splits them, contracted."""
    ps = pieces(g, s)
    vertex_node = {v: p.vertices[0] for p in ps for v in p.vertices}
    return ComponentGraph(g.quotient(vertex_node),
                          {p.vertices[0]: frozenset(p.vertices) for p in ps},
                          vertex_node)


@dataclass
class GlueContext:
    g: Graph
    s: FrozenSet[int]
    ghat: ComponentGraph
    comp_edges: Dict[int, FrozenSet[int]]  # component rep -> cover edge ids
    blocks: List[FrozenSet[int]]           # 2VC blocks of the contraction
    anchor: int                            # rep of the chosen large component
    block: FrozenSet[int]                  # block containing the anchor
    local: Dict[int, bool]                 # rep -> lies in exactly one block

    def comp_vertices(self, rep: int) -> FrozenSet[int]:
        return self.ghat.node_vertices[rep]

    def comp_size(self, rep: int) -> int:
        return len(self.comp_edges[rep])


def _blocks_of(h: Graph) -> List[FrozenSet[int]]:
    """Biconnected blocks of h as vertex sets (bridges give 2-node blocks),
    ordered by smallest vertex, then size, then sorted vertex list."""
    vs = h.vertices
    return sorted((frozenset(vs[x] for x in b) for b in _blocks(_index(h))),
                  key=lambda b: (min(b), len(b), sorted(b)))


def build_context(g: Graph, s: FrozenSet[int]) -> GlueContext:
    ghat = component_graph(g, s)
    comp_edges = {p.vertices[0]: p.edges for p in pieces(g, s)}
    blocks = _blocks_of(ghat.graph)
    large = sorted(r for r in comp_edges if len(comp_edges[r]) >= 8)
    if not large:
        raise InternalContradiction("no large component to anchor the merge",
                                    g)
    cand = [b for b in blocks if any(r in b for r in large)]
    if not cand:
        raise InternalContradiction("large components sit in no block", g)
    block = min(cand, key=min)
    anchor = min(r for r in large if r in block)
    in_blocks: Dict[int, int] = {r: 0 for r in comp_edges}
    for b in blocks:
        for r in b:
            in_blocks[r] += 1
    local = {r: in_blocks[r] <= 1 for r in comp_edges}
    return GlueContext(g, s, ghat, comp_edges, blocks, anchor, block, local)


# -- matching and cycle searches -------------------------------------------


def local_3_matching(ctx: GlueContext, block: FrozenSet[int],
                     side: Iterable[int]) -> List[Edge]:
    """Matching of size 3 between the vertices of `side` and the rest of
    the block, in the original graph."""
    side = set(side)
    v1: Set[int] = set()
    v2: Set[int] = set()
    for rep in block:
        tgt = v1 if rep in side else v2
        tgt.update(ctx.comp_vertices(rep))
    got = find_cross_matching(ctx.g, sorted(v1), sorted(v2), 3)
    if got is None:
        raise InternalContradiction("cross matching of size 3 missing", ctx.g)
    return got


def hamiltonian_pairs(g: Graph, verts: Iterable[int]) -> List[Tuple[int, int]]:
    """Pairs of externally connected cycle vertices joined by a Hamiltonian
    path inside the component."""
    vset = set(verts)
    ext = sorted(v for v in vset
                 if any(w not in vset for w in g.neighbors(v)))
    out = []
    for i, u in enumerate(ext):
        for v in ext[i + 1:]:
            if hamiltonian_path(g, vset, u, v) is not None:
                out.append((u, v))
    return out


def _anchored_cycle(ctx: GlueContext, r1: int, r2: int,
                    gate1: Optional[Tuple[Iterable[int], Iterable[int]]] = None,
                    gate2: Optional[Tuple[Iterable[int], Iterable[int]]] = None,
                    allowed: Optional[FrozenSet[int]] = None):
    """A cycle of the contraction through components r1 and r2.

    A gate, when given, is a pair of vertex sets (A, B): the cycle must
    attach to that component at one vertex of A and a different vertex of
    B.  Without a gate the two attachment vertices may coincide.  `allowed`
    restricts the intermediate components (a block, typically).

    Returns (edge ids, (r1 attachments), (r2 attachments)) or None.
    """
    net = FlowNet()
    src, snk = ("src",), ("snk",)

    def gate(end, pair, r, k):
        """Arcs between `end` and component r: out of the source for k = 1,
        into the sink (every arc reversed) for k = 2. Returns the flow node
        each usable vertex of r meets the cycle's edges at."""
        if pair is None:
            return dict.fromkeys(ctx.comp_vertices(r), end)

        def arc(a, b):
            net.add_arc(*((a, b) if k == 1 else (b, a)), None)
        for i in (0, 1):
            arc(end, (k, i))
        seen = sorted(set(pair[0]) | set(pair[1]))
        for v in seen:
            arc((k, v, "gate"), (k, v, "edge"))
        for i in (0, 1):
            for v in sorted(set(pair[i])):
                arc((k, i), (k, v, "gate"))
        return {v: (k, v, "edge") for v in seen}

    at1, at2 = gate(src, gate1, r1, 1), gate(snk, gate2, r2, 2)

    def ok(rep: int) -> bool:
        return allowed is None or rep in allowed

    def place(x, mine, at, theirs, split):
        """The flow node an edge end at x uses: r1 only as a tail, r2 only
        as a head, any other allowed component through its ci -> co split."""
        c = ctx.ghat.node_of(x)
        if c == mine:
            return at.get(x)
        return None if c == theirs or not ok(c) else (split, c)

    for rep in sorted(ctx.ghat.node_vertices):
        if rep not in (r1, r2) and ok(rep):
            net.add_arc(("ci", rep), ("co", rep), None)
    for e in ctx.g.edges():
        if ctx.ghat.node_of(e.u) == ctx.ghat.node_of(e.v):
            continue
        for x, y in ((e.u, e.v), (e.v, e.u)):
            tail = place(x, r1, at1, r2, "co")
            head = place(y, r2, at2, r1, "ci")
            if tail is not None and head is not None:
                net.add_arc(tail, head, e)

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


def _cycle_comps(ctx: GlueContext, ids: Iterable[int]) -> List[int]:
    reps: Set[int] = set()
    for i in ids:
        e = ctx.g.edge(i)
        reps.add(ctx.ghat.node_of(e.u))
        reps.add(ctx.ghat.node_of(e.v))
    return sorted(reps)


def _attachments(ctx: GlueContext, ids: Iterable[int], rep: int) -> List[int]:
    """Vertices of component rep the cycle attaches at (with multiplicity)."""
    out = []
    for i in sorted(ids):
        e = ctx.g.edge(i)
        for x in (e.u, e.v):
            if ctx.ghat.node_of(x) == rep and ctx.ghat.node_of(e.other(x)) != rep:
                out.append(x)
    return sorted(out)


def _cycle_edge_between(ctx: GlueContext, ids: Iterable[int],
                        ra: int, rb: int) -> Optional[int]:
    for i in sorted(ids):
        e = ctx.g.edge(i)
        if {ctx.ghat.node_of(e.u), ctx.ghat.node_of(e.v)} == {ra, rb}:
            return i
    return None


def _cycle_credits(ctx: GlueContext, ids: Iterable[int]) -> Fraction:
    return sum((component_credit(ctx.comp_size(r))
                for r in _cycle_comps(ctx, ids)), Fraction(0))


def _extend_cycle(ctx: GlueContext, ids: List[int], block: FrozenSet[int],
                  target: int) -> List[int]:
    """Grow a short contraction cycle to `target` components inside a block
    by swapping one cycle edge for a detour through an unused component.
    Only well-defined while the cycle has <= 3 components (any two of its
    nodes are then cycle-adjacent); best effort, returns what it reached."""
    ids = list(ids)
    while len(_cycle_comps(ctx, ids)) < min(target, len(block)):
        nodes = set(_cycle_comps(ctx, ids))
        if len(nodes) > 3:
            break
        progressed = False
        for e in ctx.ghat.graph.edges():
            x, y = e.u, e.v
            if y in nodes and x not in nodes:
                x, y = y, x
            if x not in nodes or y in nodes or y not in block:
                continue
            path = path_avoiding(ctx.ghat.graph, [y],
                                 sorted(nodes - {x}), [x])
            if not path:
                continue
            landing = path[-1].u if path[-1].u in nodes else path[-1].v
            drop = _cycle_edge_between(ctx, ids, x, landing)
            if drop is None:
                continue
            ids = [i for i in ids if i != drop]
            ids.append(e.id)
            ids.extend(pe.id for pe in path)
            progressed = True
            break
        if not progressed:
            break
    return ids


def cycle_size3(ctx: GlueContext, c1: int, c2: int, block: FrozenSet[int]):
    """Cycle of the block through c1 and c2 attaching to c1 at two distinct
    vertices, grown to >= min(3, |block|) components."""
    vs1 = ctx.comp_vertices(c1)
    got = _anchored_cycle(ctx, c1, c2, gate1=(vs1, vs1), allowed=block)
    if got is None:
        return None
    ids, (a, b), _ = got
    if len(_cycle_comps(ctx, ids)) < min(3, len(block)):
        ids = _extend_cycle(ctx, ids, block, 3)
        atts = _attachments(ctx, ids, c1)
        if len(atts) != 2:
            return None
        a, b = atts
    return ids, (a, b)


def shortcut_c4_local_c5(ctx: GlueContext, c1: int, c2: int,
                         block: FrozenSet[int],
                         c2_gate: Optional[Tuple[Iterable[int],
                                                 Iterable[int]]] = None):
    """Cycle through the short-cycle component c1 and c2, attached at a
    Hamiltonian pair of c1 (so one c1 edge can be traded for a path).

    Returns (cycle ids, u1, v1, hamiltonian path vertices) or None.
    """
    vs1 = ctx.comp_vertices(c1)
    if c2_gate is None:
        vs2 = ctx.comp_vertices(c2)
        c2_gate = (vs2, vs2)
    for u, v in hamiltonian_pairs(ctx.g, vs1):
        got = _anchored_cycle(ctx, c1, c2, gate1=({u}, {v}),
                              gate2=c2_gate, allowed=block)
        if got is None:
            continue
        ids, _, _ = got
        path = hamiltonian_path(ctx.g, vs1, u, v)
        return ids, u, v, path
    return None


def shortcut_edge(f: Graph, cycle_ids: Iterable[int],
                  prefer: Sequence[int] = ()) -> Optional[int]:
    """An edge of the cycle whose removal keeps f 2EC; preferred candidates
    first, every candidate re-verified directly."""
    order: List[int] = []
    for i in list(prefer) + sorted(cycle_ids):
        if i not in order:
            order.append(i)
    for eid in order:
        if is_2ec(f.without_edges([eid])):
            return eid
    return None


def _delete_from_component(ctx: GlueContext, s2: Set[int], c1: int,
                           pairs: Sequence[Tuple[int, int]]) -> int:
    """Pick a deletable edge of the (former) cycle component c1 inside the
    merged component of s2: adjacent attachment pairs first, then a
    verified scan."""
    g = ctx.g
    home = min(ctx.comp_vertices(c1))
    p = next(p for p in pieces(g, frozenset(s2)) if home in p.vertices)
    f = g.subgraph(p.edges, p.vertices)
    cyc = sorted(ctx.comp_edges[c1])
    prefer: List[int] = []
    for u, v in pairs:
        for e in g.edges_between(u, v):
            if e.id in ctx.comp_edges[c1]:
                prefer.append(e.id)
    eid = shortcut_edge(f, cyc, prefer)
    if eid is None:
        raise InternalContradiction("no deletable cycle edge after merge", g)
    return eid


# -- move assembly ---------------------------------------------------------


def _commit(ctx: GlueContext, new_edges: Set[int], rule: str
            ) -> Tuple[FrozenSet[int], GlueMove]:
    g, s = ctx.g, ctx.s
    new_s = frozenset(new_edges)
    added = new_s - s
    removed = s - new_s
    if not all(g.has_edge(i) for i in added):
        raise InternalContradiction("merge added unknown edges", g)
    new_pieces = pieces(g, new_s)
    if len(new_pieces) >= len(pieces(g, s)):
        raise InternalContradiction(
            "merge rule %s did not reduce the component count" % rule, g)
    if any(p.bridges for p in new_pieces):
        raise InternalContradiction(
            "merge rule %s left a non-2EC component" % rule, g)
    bad = canonical_violations(g, new_s)
    if bad:
        raise InternalContradiction(
            "merge rule %s broke cover shape: %r" % (rule, bad), g)
    delta = cover_cost(g, s) - cover_cost(g, new_s)
    if delta < 0:
        raise InternalContradiction(
            "merge rule %s raised the cost (delta %s)" % (rule, delta), g)
    return new_s, GlueMove(added, removed, delta, rule)


# -- the individual merge rules --------------------------------------------


def glue_adjacent(ctx: GlueContext, c1: int, c2: int, path: List[int],
                  e_anchor: Edge, e_out: Edge):
    """Replace the short cycle c1 by its Hamiltonian path `path` and close a
    component-level cycle through the anchor with the two given edges."""
    fids = {e_anchor.id, e_out.id}
    if c2 != ctx.anchor:
        link = path_avoiding(ctx.ghat.graph, [c2], [ctx.anchor], [c1])
        if link is None:
            return None
        fids |= {e.id for e in link}
    new = (set(ctx.s) - ctx.comp_edges[c1]) | fids \
        | path_edge_ids(ctx.g, path)
    return _commit(ctx, new, "adjacent_merge")


def _find_adjacent_move(ctx: GlueContext):
    for c1 in sorted(ctx.block - {ctx.anchor}):
        if ctx.comp_size(c1) > 7:
            continue
        vs = ctx.comp_vertices(c1)
        for u1 in sorted(vs):
            anchors = [e for e in ctx.g.incident(u1)
                       if ctx.ghat.node_of(e.other(u1)) == ctx.anchor]
            if not anchors:
                continue
            for v1 in sorted(vs - {u1}):
                path = hamiltonian_path(ctx.g, vs, u1, v1)
                if path is None:
                    continue
                for e_out in ctx.g.incident(v1):
                    c2 = ctx.ghat.node_of(e_out.other(v1))
                    if c2 == c1:
                        continue
                    got = glue_adjacent(ctx, c1, c2, path, anchors[0], e_out)
                    if got is not None:
                        return got
    return None


def glue_c4_local_c5(ctx: GlueContext, c1: int):
    """Merge a 4-cycle, or a 5-cycle living in a single block, into the
    anchor's block, trading one of its edges for a Hamiltonian path."""
    got = shortcut_c4_local_c5(ctx, c1, ctx.anchor, ctx.block)
    if got is None:
        raise InternalContradiction(
            "short cycle component admits no pair-anchored merge cycle", ctx.g)
    ids, _u1, _v1, path = got
    new = (set(ctx.s) - ctx.comp_edges[c1]) | set(ids) \
        | path_edge_ids(ctx.g, path)
    return _commit(ctx, new, "short_cycle_merge")


def _second_block(ctx: GlueContext, c1: int,
                  must_contain: Optional[int] = None) -> FrozenSet[int]:
    cand = [b for b in ctx.blocks
            if c1 in b and b != ctx.block
            and (must_contain is None or must_contain in b)]
    if not cand:
        raise InternalContradiction(
            "component lacks the expected second block", ctx.g)
    return min(cand, key=min)


def _second_cycle(ctx: GlueContext, c1: int, c2: int, bprime: FrozenSet[int],
                  gate: Tuple[Set[int], FrozenSet[int]]
                  ) -> Tuple[List[int], Set[int]]:
    """A cycle of the second block bprime through c1 and c2 that attaches
    to c1 at a vertex of gate[0] and a different vertex of gate[1].

    A 4-cycle c2 is entered at a Hamiltonian pair and traded for the path
    between them. Otherwise the anchored cycle is grown to three components
    when the grown cycle still attaches at two distinct c1 vertices, one of
    them in gate[0]. Returns (cycle ids, the cover with the cycle in it).
    """
    g = ctx.g
    if ctx.comp_size(c2) == 4:
        got = shortcut_c4_local_c5(ctx, c2, c1, bprime, c2_gate=gate)
        if got is None:
            raise InternalContradiction(
                "4-cycle in the second block admits no merge cycle", g)
        ids, _p, _q, path = got
        return ids, (set(ctx.s) - ctx.comp_edges[c2]) | set(ids) \
            | path_edge_ids(g, path)
    got = _anchored_cycle(ctx, c1, c2, gate1=gate, allowed=bprime)
    if got is None:
        raise InternalContradiction(
            "second block admits no anchored cycle", g)
    ids = got[0]
    if len(_cycle_comps(ctx, ids)) < min(3, len(bprime)):
        grown = _extend_cycle(ctx, ids, bprime, 3)
        gat = _attachments(ctx, grown, c1)
        if len(gat) == 2 and gat[0] != gat[1] \
                and (gat[0] in gate[0] or gat[1] in gate[0]):
            ids = grown
    return ids, set(ctx.s) | set(ids)


def _drop_c1_edge(ctx: GlueContext, c1: int, s2: Set[int], ids: List[int],
                  u1: int, v1: int, rule: str):
    """Delete one edge of c1 from the merged cover s2, the edges between
    u1 and v1 and between the attachments of the second cycle ids first,
    and commit."""
    atts = _attachments(ctx, ids, c1)
    if len(atts) != 2 or atts[0] == atts[1]:
        raise InternalContradiction(
            "second cycle attaches at a single vertex", ctx.g)
    eid = _delete_from_component(ctx, s2, c1,
                                 [(u1, v1), (atts[0], atts[1])])
    return _commit(ctx, s2 - {eid}, rule)


def _pendant_finish(ctx: GlueContext, c1: int, fids: Set[int],
                    u1: int, v1: int):
    """Tail of the 5-cycle merge: pick a second block at c1, route a second
    cycle through it that attaches first off the u1, v1 attachment pair
    (the deletable-edge argument needs it there), then delete one edge of
    c1."""
    g = ctx.g
    bprime = _second_block(ctx, c1)
    m3 = local_3_matching(ctx, bprime, {c1})
    vs1 = ctx.comp_vertices(c1)
    first = set(vs1 - {u1, v1})
    anchored = [e for e in m3
                if (e.u if e.u in vs1 else e.v) in first]
    if not anchored:
        raise InternalContradiction(
            "second-block matching pinned to the first cycle", g)
    me = anchored[0]
    w1 = me.u if me.u in vs1 else me.v
    c1p = ctx.ghat.node_of(me.other(w1))
    ids, s2 = _second_cycle(ctx, c1, c1p, bprime, (first | {w1}, vs1))
    return _drop_c1_edge(ctx, c1, s2 | fids, ids, u1, v1,
                         "pendant_5cycle_merge")


def _reroute_distinct(ctx: GlueContext, fids: List[int], c1: int, u1: int):
    """The merge cycle pinches c1 at one vertex; rebuild it so it attaches
    at two distinct c1 vertices, using a fresh matching edge."""
    g = ctx.g
    vs1 = ctx.comp_vertices(c1)
    other: Set[int] = set()
    for rep in ctx.block - {c1}:
        other.update(ctx.comp_vertices(rep))
    m3 = find_cross_matching(g, sorted(vs1), sorted(other), 3, require=u1)
    if m3 is None:
        raise InternalContradiction("pin-breaking matching missing", g)
    nodes = set(_cycle_comps(ctx, fids))
    nbrs = sorted(r for r in nodes - {c1}
                  if _cycle_edge_between(ctx, fids, c1, r) is not None)
    for me in m3:
        ui = me.u if me.u in vs1 else me.v
        if ui == u1:
            continue
        land = ctx.ghat.node_of(me.other(ui))
        # swap the cycle edge c1-land for me, or detour from me's far end
        # back to the cycle and land on a component other than c1
        path: List[Edge] = []
        if land not in nbrs:
            if land in nodes:
                continue
            path = path_avoiding(ctx.ghat.graph, [land],
                                 sorted(nodes - {c1}), [c1])
            if path is None:
                continue
            land = path[-1].u if path[-1].u in nodes else path[-1].v
        if land in nbrs:
            drop = _cycle_edge_between(ctx, fids, c1, land)
            keep = [i for i in fids if i != drop]
        else:
            # walk from the landing component back to c1 along the side of
            # the old cycle that keeps the anchor on board
            keep = _arc_keeping(ctx, fids, land, c1, ctx.anchor)
            if keep is None:
                continue
        nids = keep + [me.id] + [pe.id for pe in path]
        atts = _attachments(ctx, nids, c1)
        if len(atts) == 2 and atts[0] != atts[1] \
                and (not path or len(_cycle_comps(ctx, nids)) >= 4):
            return nids, atts[0], atts[1]
    raise InternalContradiction("could not unpin the merge cycle", g)


def _arc_keeping(ctx: GlueContext, fids: List[int], start: int, end: int,
                 want: int) -> Optional[List[int]]:
    """Edges of one of the two cycle arcs from component start to end,
    the arc whose components include want."""
    seq = _cycle_sequence(ctx, fids)
    if seq is None or start not in seq or end not in seq:
        return None
    i, n = seq.index(start), len(seq)
    for step in (1, -1):
        arc = [seq[(i + step * k) % n] for k in range(n)]
        arc = arc[:arc.index(end) + 1]
        if want in arc:
            return [_cycle_edge_between(ctx, fids, a, b)
                    for a, b in zip(arc, arc[1:])]
    return None


def _walk(adj: Dict[int, List[int]]) -> Optional[List[int]]:
    """The nodes of a 2-regular adjacency in walk order from the smallest:
    each step goes to the first listed neighbour other than the node just
    left (back to it on a 2-cycle). None when a node has another degree or
    the walk does not close within len(adj) steps."""
    if any(len(v) != 2 for v in adj.values()):
        return None
    start = min(adj)
    seq = [start]
    prev = None
    cur = start
    while True:
        nxts = [x for x in adj[cur] if x != prev]
        nxt = nxts[0] if nxts else prev
        if nxt == start:
            break
        seq.append(nxt)
        prev, cur = cur, nxt
        if len(seq) > len(adj):
            return None
    return seq


def _cycle_sequence(ctx: GlueContext, fids: List[int]) -> Optional[List[int]]:
    """The components of the contraction cycle fids, in walk order."""
    adj: Dict[int, List[int]] = {}
    for i in fids:
        e = ctx.g.edge(i)
        a, b = ctx.ghat.node_of(e.u), ctx.ghat.node_of(e.v)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return _walk(adj)


def glue_nonlocal_c5(ctx: GlueContext, c1: int):
    """Merge a 5-cycle that spans two blocks using both of its blocks."""
    g = ctx.g
    B = ctx.block
    C = ctx.anchor
    if len(B) == 2:
        raise InternalContradiction(
            "5-cycle alone in the anchor block survived the adjacency scan", g)
    if len(B) == 3:
        c2 = next(iter(B - {c1, C}))
        if ctx.comp_size(c2) == 5:
            raise InternalContradiction(
                "two 5-cycles in a 3-component block survived the "
                "adjacency scan", g)
        got = cycle_size3(ctx, c1, C, B)
        if got is None:
            raise InternalContradiction(
                "no anchored cycle in a 3-component block", g)
        ids, atts = got
    else:
        got = _anchored_cycle(ctx, c1, C, allowed=B)
        if got is None:
            raise InternalContradiction(
                "no cycle through anchor and 5-cycle", g)
        ids = _extend_cycle(ctx, got[0], B, 4)
        atts = _attachments(ctx, ids, c1)
    creds = _cycle_credits(ctx, ids)
    if creds >= len(ids) + 2:
        return _commit(ctx, set(ctx.s) | set(ids), "cycle_merge")
    if len(atts) != 2 or atts[0] == atts[1] \
            or creds < len(ids) + Fraction(7, 4):
        if len(B) == 3:
            raise InternalContradiction(
                "3-component block cycle pays too little", g)
        ids, *atts = _reroute_distinct(ctx, list(ids), c1, atts[0])
        if _cycle_credits(ctx, ids) < len(ids) + Fraction(7, 4):
            raise InternalContradiction("rerouted cycle pays too little", g)
    u1, v1 = atts
    return _pendant_finish(ctx, c1, set(ids), u1, v1)


def _cycle_order(ctx: GlueContext, c1: int) -> List[int]:
    """The vertices of the cycle component c1 in walk order from the
    smallest, towards its smaller neighbour."""
    sub = ctx.g.spanning(ctx.comp_edges[c1])
    order = _walk({v: sorted(sub.neighbors(v))
                   for v in ctx.comp_vertices(c1)})
    if order is None:
        raise InternalContradiction("component is not a simple cycle", ctx.g)
    return order


def _shortest_arc_interior(order: List[int], u: int, v: int) -> List[int]:
    n = len(order)
    i, j = order.index(u), order.index(v)
    fwd = [order[(i + k) % n] for k in range(1, (j - i) % n)]
    bwd = [order[(i - k) % n] for k in range(1, (i - j) % n)]
    if len(fwd) + 1 < len(bwd) + 1:
        return fwd
    if len(bwd) + 1 < len(fwd) + 1:
        return bwd
    return sorted(set(fwd) | set(bwd))


def glue_c6_c7(ctx: GlueContext, c1: int):
    """Merge the lone partner of the anchor when the anchor's block has
    exactly two components and the partner has >= 6 edges."""
    g = ctx.g
    B = ctx.block
    C = ctx.anchor
    m1 = ctx.comp_size(c1)
    if m1 >= 8:
        m3 = local_3_matching(ctx, B, {C})
        e1, e2 = m3[:2]
        return _commit(ctx, set(ctx.s) | {e1.id, e2.id}, "double_edge_merge")

    m3 = local_3_matching(ctx, B, {c1})
    vs1 = ctx.comp_vertices(c1)
    trio = sorted(e.u if e.u in vs1 else e.v for e in m3)
    by_vertex = {}
    for e in m3:
        by_vertex[e.u if e.u in vs1 else e.v] = e
    order = _cycle_order(ctx, c1)
    pos = {v: i for i, v in enumerate(order)}
    for a, b in combinations(trio, 2):
        if (pos[a] - pos[b]) % m1 in (1, m1 - 1):
            raise InternalContradiction(
                "cycle-adjacent matched pair survived the adjacency scan", g)

    # escape vertex: off the matched trio, with an edge leaving the block
    escape = None
    for x in sorted(vs1 - set(trio)):
        for e in g.incident(x):
            xrep = ctx.ghat.node_of(e.other(x))
            if xrep in (c1, C):
                continue
            escape = (x, e, xrep)
            break
        if escape:
            break
    if escape is None:
        raise InternalContradiction(
            "6/7-cycle has no escape edge off the matched trio", g)
    x1, xe, xrep = escape
    lab = next((ab for ab in combinations(trio, 2)
                if x1 in _shortest_arc_interior(order, *ab)), None)
    if lab is None:
        raise InternalContradiction(
            "escape vertex misses every shortest matched arc", g)
    u1, v1 = lab
    w1 = next(t for t in trio if t not in (u1, v1))
    fids = {by_vertex[u1].id, by_vertex[v1].id}
    interior = set(_shortest_arc_interior(order, u1, v1))

    bprime = _second_block(ctx, c1, must_contain=xrep)
    others = sorted(bprime - {c1}, key=lambda r: (ctx.comp_size(r), r))
    c2 = others[0]
    ids, s2 = _second_cycle(ctx, c1, c2, bprime, (interior, vs1))
    bound = component_credit(m1) + component_credit(ctx.comp_size(c2)) \
        + Fraction(len(ids), 4) - Fraction(14, 4)
    if ctx.comp_size(c2) == 4 or bound >= 0:
        return _drop_c1_edge(ctx, c1, s2 | fids, ids, u1, v1,
                             "long_cycle_merge")

    # degenerate: a 6-cycle hanging between the anchor and one pendant
    # 5-cycle in a 2-component second block
    if not (m1 == 6 and ctx.comp_size(c2) == 5 and len(ids) == 2
            and bprime == frozenset({c1, c2})):
        raise InternalContradiction(
            "under-paying two-block merge outside the degenerate shape", g)
    rot = order[pos[u1]:] + order[:pos[u1]]
    if rot[1] != x1:
        rot = [rot[0]] + rot[1:][::-1]
    a = [None] + rot
    if a[3] != v1 or a[5] != w1 or a[2] != x1:
        raise InternalContradiction("6-cycle labelling out of shape", g)
    vs2 = ctx.comp_vertices(c2)
    e_b1 = min((e for e in g.incident(x1) if e.other(x1) in vs2),
               key=lambda e: e.id)
    extra = None
    for i in (4, 6, 2):
        for e in g.incident(a[i]):
            if e.other(a[i]) in vs2 and e.id != e_b1.id \
                    and (i != 2 or e.other(a[i]) != e_b1.other(x1)):
                extra = (i, e)
                break
        if extra:
            break
    csub = g.spanning(ctx.comp_edges[c2])

    def c1_edge(p, q):
        return min(e.id for e in g.edges_between(p, q)
                   if e.id in ctx.comp_edges[c1])

    if extra is not None and extra[0] in (4, 6):
        i, e2x = extra
        if i == 4:
            gone = {c1_edge(a[1], a[2]), c1_edge(a[3], a[4])}
        else:
            gone = {c1_edge(a[3], a[2]), c1_edge(a[1], a[6])}
        s2 = (set(ctx.s) - gone) | fids | {e_b1.id, e2x.id}
        return _commit(ctx, s2, "degenerate_rewire")
    if extra is not None:
        # a second edge from x1 into the 5-cycle: trade one 5-cycle edge
        # for a matched pair of cross edges, then delete a 6-cycle edge
        pick = None
        for ex in (e for e in g.incident(x1) if e.other(x1) in vs2):
            b = ex.other(x1)
            for bp in csub.neighbors(b):
                cands = [e for e in g.edges()
                         if e.id not in ctx.comp_edges[c1]
                         and {e.u, e.v} & (vs1 - {x1})
                         and bp in (e.u, e.v)]
                if cands:
                    pick = (ex, b, bp, cands[0])
                    break
            if pick:
                break
        if pick is None:
            raise InternalContradiction(
                "no matched cross pair into the pendant 5-cycle", g)
        ex, b, bp, e_far = pick
        afar = e_far.u if e_far.u in vs1 else e_far.v
        bb = min(e.id for e in csub.edges_between(b, bp))
        s2 = (set(ctx.s) - {bb}) | fids | {ex.id, e_far.id}
        eid = _delete_from_component(ctx, s2, c1, [(u1, v1), (x1, afar)])
        return _commit(ctx, s2 - {eid}, "degenerate_rewire")

    # two pendant 5-cycles: rewire both onto the 6-cycle, anchor untouched
    third = None
    for i in (2, 4, 6):
        for e in g.incident(a[i]):
            rep = ctx.ghat.node_of(e.other(a[i]))
            if rep not in (c1, C, c2):
                third = rep
                break
        if third:
            break
    if third is None or ctx.comp_size(third) != 5:
        raise InternalContradiction(
            "missing second pendant 5-cycle in the degenerate shape", g)
    gone: Set[int] = set()
    take: Set[int] = set()
    for rep in (c2, third):
        cs = g.spanning(ctx.comp_edges[rep])
        found = False
        for ce in cs.edges():
            h1 = [e for e in g.incident(ce.u) if e.other(ce.u) in vs1]
            h2 = [e for e in g.incident(ce.v) if e.other(ce.v) in vs1]
            if h1 and h2 and h1[0].id != h2[0].id:
                gone.add(ce.id)
                take.add(h1[0].id)
                take.add(h2[0].id)
                found = True
                break
        if not found:
            raise InternalContradiction(
                "pendant 5-cycle lacks an adjacent attached pair", g)
    s2 = (set(ctx.s) - gone) | take
    return _commit(ctx, s2, "pendant_pair_rewire")


# -- dispatcher ------------------------------------------------------------


def glue_step(g: Graph, s: FrozenSet[int]) -> Tuple[FrozenSet[int], GlueMove]:
    """One merge: pick the anchor block and apply the first rule that fits."""
    ctx = build_context(g, s)
    B, C = ctx.block, ctx.anchor

    got = _find_adjacent_move(ctx)
    if got is not None:
        return got
    for c1 in sorted(B - {C}):
        m1 = ctx.comp_size(c1)
        if m1 == 4 or (m1 == 5 and ctx.local[c1]):
            return glue_c4_local_c5(ctx, c1)
    for c1 in sorted(B - {C}):
        if ctx.comp_size(c1) == 5:
            return glue_nonlocal_c5(ctx, c1)
    if len(B) == 2:
        c1 = next(iter(B - {C}))
        if ctx.comp_size(c1) < 6:
            raise InternalContradiction(
                "short component in a 2-component block fell through", g)
        return glue_c6_c7(ctx, c1)
    if any(ctx.comp_size(r) < 6 for r in B):
        raise InternalContradiction(
            "short component fell through every merge rule", g)
    c2 = min(B - {C})
    got = _anchored_cycle(ctx, c2, C, allowed=B)
    if got is None:
        raise InternalContradiction("block admits no cycle through anchor", g)
    ids = _extend_cycle(ctx, got[0], B, 3)
    if len(_cycle_comps(ctx, ids)) < 3:
        raise InternalContradiction("anchor cycle stuck below 3 components", g)
    return _commit(ctx, set(s) | set(ids), "cycle_merge")


def glue_all(g: Graph, s: FrozenSet[int]
             ) -> Tuple[FrozenSet[int], List[GlueMove]]:
    """Merge until a single spanning 2EC component remains."""
    moves: List[GlueMove] = []
    cur = frozenset(s)
    ncomp = len(pieces(g, cur))
    budget = ncomp + 1
    while ncomp > 1:
        budget -= 1
        if budget <= 0:
            raise InternalContradiction("merging stalled", g)
        cur, move = glue_step(g, cur)
        moves.append(move)
        nxt = len(pieces(g, cur))
        if nxt >= ncomp:
            raise InternalContradiction("merge did not reduce components", g)
        ncomp = nxt
    final = pieces(g, cur)
    if len(final) != 1 or final[0].bridges:
        raise InternalContradiction("final subgraph is not spanning 2EC", g)
    if Fraction(len(cur)) != cover_cost(g, cur) - 2:
        raise InternalContradiction("final size/cost identity broken", g)
    return cur, moves
