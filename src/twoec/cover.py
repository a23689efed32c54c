"""Triangle-free 2-edge covers: guessing, decomposition, cost, canonical form.

The lower-bound object for the solver is a minimum triangle-free 2-edge
cover containing a guessed tree on 8 vertices. This module enumerates the
guesses, computes the constrained cover with the guessed edges forced into
`oracle.min_tf2ec`, and massages covers into canonical form. `pieces` is
the one split of a cover into components, 2EC blocks and bridges; the
canonical-form checks, `cover_cost` (edges plus credits, which the later
merging stages check their moves against), bridge covering and gluing all
read it.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import InternalContradiction
from .graph import (Graph, bridges, components, connected_subsets,
                    hamiltonian_path, path_edge_ids)
from .oracle import min_tf2ec

GUESS_VERTICES = 8


# -- guess enumeration -----------------------------------------------------


def enumerate_guesses(g: Graph) -> Iterator[FrozenSet[int]]:
    """All 7-edge trees of g spanning 8 vertices, each exactly once.

    Grouped by vertex set (ascending anchor, extension order), then by
    lexicographic edge-id tuple within a set.
    """
    for w in connected_subsets(g, GUESS_VERTICES):
        if len(w) == GUESS_VERTICES:
            yield from _spanning_trees(g.induced(w))


def _spanning_trees(sub: Graph) -> Iterator[FrozenSet[int]]:
    """Spanning trees of sub in lex order of their sorted edge-id tuples:
    the (n - 1)-edge combinations of its ascending edge ids that close no
    cycle."""
    pos = {v: i for i, v in enumerate(sub.vertices)}
    edges = [(e.id, pos[e.u], pos[e.v]) for e in sub.edges()]
    for tree in itertools.combinations(edges, sub.n - 1):
        root = list(range(sub.n))
        for _, a, b in tree:
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a == b:
                break
            root[a] = b
        else:
            yield frozenset(eid for eid, _, _ in tree)


# -- constrained minimum triangle-free 2-edge cover ------------------------


def initial_cover(g: Graph, f: FrozenSet[int],
                  deadline: Optional[float] = None) -> FrozenSet[int]:
    """Minimum triangle-free 2-edge cover of g containing the guess f.

    `min_tf2ec` decides the guessed edges before its search and keeps the
    others in edge-id order, so among the covers containing f it returns
    the (size, lex)-minimum. The guess is a tree on 8 vertices, so its
    component is never a triangle.
    """
    h = min_tf2ec(g, f, deadline)
    if not f <= h:
        raise InternalContradiction("guessed edge missing from cover",
                                    counterexample=g)
    return h


# -- the pieces of a cover and their cost ---------------------------------


class Piece(NamedTuple):
    """One component of a cover: its vertices (ascending), edge ids and
    bridge ids, its 2EC blocks as (vertex set, edge ids) by smallest
    vertex, and its vertices in no block. A piece with no bridge is 2EC."""
    vertices: Tuple[int, ...]
    edges: FrozenSet[int]
    bridges: FrozenSet[int]
    blocks: Tuple[Tuple[FrozenSet[int], FrozenSet[int]], ...]
    lonely: FrozenSet[int]


@lru_cache(maxsize=16)
def pieces(g: Graph, h: FrozenSet[int]) -> Tuple[Piece, ...]:
    """The components of g.spanning(h), ordered by smallest vertex.

    The 2EC blocks are the components of the cover less its bridges; one
    with no edge is a lonely vertex, and a looped vertex alone a block of
    its own. Canonical form, bridge covering and gluing check one cover
    several times, so the last few decompositions are kept.
    """
    sub = g.spanning(h)
    br = bridges(sub)
    comps = components(sub)
    at = {v: i for i, comp in enumerate(comps) for v in comp}
    edges: List[Set[int]] = [set() for _ in comps]
    for e in sub.edges():
        edges[at[e.u]].add(e.id)
    blocks: List[list] = [[] for _ in comps]
    lonely: List[Set[int]] = [set() for _ in comps]
    residue = sub.without_edges(br)
    for c in components(residue):
        es = frozenset(e.id for v in c for e in residue.incident(v))
        if es:
            blocks[at[c[0]]].append((frozenset(c), es))
        else:
            lonely[at[c[0]]].add(c[0])
    return tuple(Piece(tuple(comp), frozenset(edges[i]),
                       frozenset(b for b in br if at[g.edge(b).u] == i),
                       tuple(blocks[i]), frozenset(lonely[i]))
                 for i, comp in enumerate(comps))


def component_credit(m: int) -> Fraction:
    """Credit of a 2EC component with m edges."""
    return Fraction(m, 4) if m < 8 else Fraction(2)


def cover_cost(g: Graph, h: FrozenSet[int]) -> Fraction:
    """|h| plus credits: a 2EC piece with m edges gets component_credit(m),
    a bridged one 1, plus 1 per 2EC block and 1/4 per bridge."""
    total = Fraction(len(h))
    for p in pieces(g, h):
        if p.bridges:
            total += 1 + len(p.blocks) + Fraction(len(p.bridges), 4)
        else:
            total += component_credit(len(p.edges))
    return total


# -- canonical covers ------------------------------------------------------


def is_tf2ec(g: Graph, h: FrozenSet[int]) -> bool:
    """h is a 2-edge cover of g and no component of h is a triangle."""
    degree = Counter(x for eid in h for x in g.edge(eid).ends)
    if any(degree[v] < 2 for v in g.vertices):
        return False
    return not any(len(p.vertices) == 3 and len(p.edges) == 3
                   for p in pieces(g, h))


def canonical_violations(g: Graph, h: FrozenSet[int]) -> List[Tuple[str, object]]:
    """The canonical-cover properties that h fails, with witnesses."""
    out: List[Tuple[str, object]] = []
    saw_big = False
    for p in pieces(g, h):
        n, m, rep = len(p.vertices), len(p.edges), p.vertices[0]
        if n >= 8:
            saw_big = True
        if n == 3 and m == 3:
            out.append(("triangle_component", rep))
            continue
        if not p.bridges:
            if m < 8 and m != n:
                out.append(("small_non_cycle", rep))
        else:
            big_blocks = 0
            for vs, es in p.blocks:
                if len(es) < 4:
                    out.append(("small_block", (rep, min(vs))))
                if len(es) >= 6:
                    big_blocks += 1
            if big_blocks < 2:
                out.append(("too_few_big_blocks", rep))
    if not saw_big:
        out.append(("no_big_component", None))
    return out


def _potential(g: Graph, h: FrozenSet[int]) -> Tuple[int, int, int]:
    ps = pieces(g, h)
    return (len(h), len(ps), sum(len(p.bridges) for p in ps))


def _is_coarsening(g: Graph, new: FrozenSet[int], old: FrozenSet[int]) -> bool:
    new_comp = {v: i for i, p in enumerate(pieces(g, new))
                for v in p.vertices}
    return all(len({new_comp[v] for v in p.vertices}) == 1
               for p in pieces(g, old))


def _validated(g: Graph, h: FrozenSet[int], h2: FrozenSet[int]
               ) -> Optional[FrozenSet[int]]:
    """h2 if it is a tf cover, coarsens h, and lex-improves; else None."""
    if not is_tf2ec(g, h2):
        return None
    if _potential(g, h2) >= _potential(g, h):
        return None
    if not _is_coarsening(g, h2, h):
        return None
    return h2


def _drop_spare_edge(g: Graph, h: FrozenSet[int]) -> Optional[FrozenSet[int]]:
    """Delete a non-bridge cover edge whose endpoints both keep degree >= 2."""
    sub = g.spanning(h)
    br = {b for p in pieces(g, h) for b in p.bridges}
    for eid in sorted(h):
        if eid in br:
            continue
        e = sub.edge(eid)
        if sub.degree(e.u) >= 3 and sub.degree(e.v) >= 3:
            return _validated(g, h, h - {eid})
    return None


def _rewire_leaf_block(g: Graph, h: FrozenSet[int]) -> Optional[FrozenSet[int]]:
    """Replace a short leaf block by a Hamiltonian path plus an escape edge.

    A leaf block of a complex component with <= 5 edges and attachment node
    u1 becomes a u1-v1 Hamiltonian path over its vertices plus an edge from
    v1 out of the block, merging it into whatever v1's neighbor belongs to.
    A block's attachment nodes are its ends of the component's bridges.
    """
    for p in pieces(g, h):
        ends = {x for eid in p.bridges for x in g.edge(eid).ends}
        for vs, es in p.blocks:
            if len(es) > 5:
                continue
            attach = sorted(vs & ends)
            if len(attach) != 1:
                continue
            u1 = attach[0]
            for v1 in sorted(vs - {u1}):
                path = hamiltonian_path(g, vs, u1, v1)
                if path is None:
                    continue
                out_edges = [e.id for e in g.incident(v1)
                             if e.other(v1) not in vs]
                if not out_edges:
                    continue
                path_edges = path_edge_ids(g, path)
                for esc in out_edges:
                    h2 = (h - es) | path_edges | {esc}
                    got = _validated(g, h, frozenset(h2))
                    if got is not None:
                        return got
    return None


def _exchange_small_component(g: Graph, h: FrozenSet[int]
                              ) -> Optional[FrozenSet[int]]:
    """Bounded (remove <= 2, add <= 1) exchange on a small non-cycle 2EC
    component; the canonical-form proof guarantees one applies."""
    for p in pieces(g, h):
        if p.bridges or len(p.edges) >= 8 or len(p.edges) == len(p.vertices):
            continue
        comp_edges = sorted(p.edges)
        incident = sorted(e.id for v in p.vertices for e in g.incident(v)
                          if e.id not in h)
        removals = [frozenset(c) for r in (1, 2)
                    for c in itertools.combinations(comp_edges, r)]
        adds = [frozenset()] + [frozenset([a]) for a in dict.fromkeys(incident)]
        for rm in removals:
            for ad in adds:
                got = _validated(g, h, (h - rm) | ad)
                if got is not None:
                    return got
    return None


def canonicalize(g: Graph, h: FrozenSet[int]) -> FrozenSet[int]:
    """Turn a triangle-free 2-edge cover into a canonical one, no larger.

    Applies, in order of cheapness: spare-edge deletion, short leaf-block
    rewiring, bounded exchange on small non-cycle components. Every move is
    re-validated (cover, coarsening, strictly smaller potential), so the
    loop terminates; a remaining violation with no applicable move is a
    contradiction with the host graph being structured.
    """
    if not is_tf2ec(g, h):
        raise ValueError("input is not a triangle-free 2-edge cover")
    cur = frozenset(h)
    while True:
        moved = (_drop_spare_edge(g, cur)
                 or _rewire_leaf_block(g, cur)
                 or _exchange_small_component(g, cur))
        if moved is None:
            break
        cur = moved
    bad = canonical_violations(g, cur)
    if bad:
        raise InternalContradiction(f"canonicalization stalled: {bad}",
                                    counterexample=(g, cur))
    return cur
