"""Triangle-free 2-edge covers: guessing, canonical form, credit accounting.

The lower-bound object for the solver is a minimum triangle-free 2-edge
cover containing a guessed tree on 8 vertices. This module enumerates the
guesses, computes the constrained cover with the guessed edges forced into
`oracle.min_tf2ec`, massages covers into canonical form, and computes the
credit ledger that the later merging stages check their moves against.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .errors import InternalContradiction
from .graph import (Graph, bridges, components, connected_subsets,
                    hamiltonian_path, is_2ec, path_edge_ids, two_ec_blocks)
from .oracle import min_tf2ec

GUESS_VERTICES = 8
GUESS_EDGES = 7


# -- guess enumeration -----------------------------------------------------


def enumerate_guesses(g: Graph) -> Iterator[FrozenSet[int]]:
    """All 7-edge trees of g spanning 8 vertices, each exactly once.

    Grouped by vertex set (ascending anchor, extension order), then by
    lexicographic edge-id tuple within a set.
    """
    for w in connected_subsets(g, GUESS_VERTICES):
        if len(w) < GUESS_VERTICES:
            continue
        sub = g.induced(w)
        if sub.m < GUESS_EDGES:
            continue
        yield from _spanning_trees(sub)


def _spanning_trees(sub: Graph) -> Iterator[FrozenSet[int]]:
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


# -- credits and cost ------------------------------------------------------


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


def component_credit(m: int) -> Fraction:
    """Credit of a 2EC component with m edges."""
    return Fraction(m, 4) if m < 8 else Fraction(2)


def credits(s: Graph) -> CreditLedger:
    """Credit ledger for a 2-edge cover given as its (spanning) subgraph."""
    led = CreditLedger()
    for comp in components(s):
        key = comp[0]
        sub = s.induced(comp)
        if is_2ec(sub):
            led.component_credits[key] = component_credit(sub.m)
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


def cover_cost(g: Graph, edge_ids: FrozenSet[int]) -> Fraction:
    return cost(g.spanning(edge_ids))


# -- canonical covers ------------------------------------------------------


def is_tf2ec(g: Graph, h: FrozenSet[int]) -> bool:
    """h is a 2-edge cover of g and no component of h is a triangle."""
    sub = g.spanning(h)
    if any(sub.degree(v) < 2 for v in g.vertices):
        return False
    for comp in components(sub):
        if len(comp) == 3 and sub.induced(comp).m == 3:
            return False
    return True


def canonical_violations(g: Graph, h: FrozenSet[int]) -> List[Tuple[str, object]]:
    """The canonical-cover properties that h fails, with witnesses."""
    sub = g.spanning(h)
    out: List[Tuple[str, object]] = []
    saw_big = False
    for comp in components(sub):
        cs = sub.induced(comp)
        if len(comp) >= 8:
            saw_big = True
        if len(comp) == 3 and cs.m == 3:
            out.append(("triangle_component", comp[0]))
            continue
        if is_2ec(cs):
            if cs.m < 8 and cs.m != cs.n:
                out.append(("small_non_cycle", comp[0]))
        else:
            dec = two_ec_blocks(cs)
            big_blocks = 0
            for vs, es in dec.blocks:
                if len(es) < 4:
                    out.append(("small_block", (comp[0], min(vs))))
                if len(es) >= 6:
                    big_blocks += 1
            if big_blocks < 2:
                out.append(("too_few_big_blocks", comp[0]))
    if not saw_big:
        out.append(("no_big_component", None))
    return out


def _potential(g: Graph, h: FrozenSet[int]) -> Tuple[int, int, int]:
    sub = g.spanning(h)
    return (len(h), len(components(sub)), len(bridges(sub)))


def _is_coarsening(g: Graph, new: FrozenSet[int], old: FrozenSet[int]) -> bool:
    new_comp: Dict[int, int] = {}
    for i, comp in enumerate(components(g.spanning(new))):
        for v in comp:
            new_comp[v] = i
    for comp in components(g.spanning(old)):
        if len({new_comp[v] for v in comp}) > 1:
            return False
    return True


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
    br = bridges(sub)
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
    """
    sub = g.spanning(h)
    for comp in components(sub):
        cs = sub.induced(comp)
        if is_2ec(cs):
            continue
        dec = two_ec_blocks(cs)
        comp_set = set(comp)
        for vs, es in sorted(dec.blocks, key=lambda b: min(b[0])):
            if len(es) > 5:
                continue
            attach = sorted(v for v in vs
                            if any(w not in vs for w in cs.neighbors(v)))
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
    import itertools
    sub = g.spanning(h)
    for comp in components(sub):
        cs = sub.induced(comp)
        if not is_2ec(cs) or cs.m >= 8 or cs.m == cs.n:
            continue
        comp_edges = cs.edge_ids()
        incident = sorted(e.id for v in comp for e in g.incident(v)
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
