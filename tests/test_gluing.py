import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings

from twoec.cover import canonicalize, cover_cost, initial_cover
from twoec.bridge_cover import cover_all
from twoec.errors import InternalContradiction
from twoec.gluing import (GlueContext, _anchored_cycle, _arc_keeping,
                          _blocks_of, _cycle_comps, build_context, glue_all,
                          glue_c4_local_c5, glue_step, hamiltonian_pairs,
                          local_3_matching, shortcut_c4_local_c5,
                          shortcut_edge)
from twoec.graph import Edge, Graph, components, is_2ec

import reference
from conftest import random_2ec_graph, small_graphs


def ring(vs, first_id):
    return [Edge(first_id + k, vs[k], vs[(k + 1) % len(vs)])
            for k in range(len(vs))]


def mk(n, edges):
    return Graph(range(n), edges)


def cover_ids(edges):
    return frozenset(e.id for e in edges)


def rings(sizes, cross):
    """Disjoint cycles of the given sizes on consecutive vertices and edge
    ids (the cover s), plus the cross edges, numbered after them."""
    edges, n = [], 0
    for size in sizes:
        edges += ring(list(range(n, n + size)), len(edges))
        n += size
    s = cover_ids(edges)
    edges += [Edge(len(s) + k, u, v) for k, (u, v) in enumerate(cross)]
    return mk(n, edges), s


def pinned_move(g, s, rule, added, removed, cost_delta):
    """glue_step on (g, s) makes exactly this move."""
    new_s, move = glue_step(g, s)
    assert (move.rule, move.added, move.removed, move.cost_delta) == \
        (rule, frozenset(added), frozenset(removed), Fraction(cost_delta))
    assert new_s == (s | move.added) - move.removed


class TestBlocks:
    def test_path_gives_two_edge_blocks(self):
        g = mk(3, [Edge(0, 0, 1), Edge(1, 1, 2)])
        assert _blocks_of(g) == [frozenset({0, 1}), frozenset({1, 2})]

    def test_butterfly(self):
        g = mk(5, [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0),
                   Edge(3, 2, 3), Edge(4, 3, 4), Edge(5, 4, 2)])
        assert set(_blocks_of(g)) == {frozenset({0, 1, 2}),
                                      frozenset({2, 3, 4})}

    def test_doubled_bridge_is_still_one_block(self):
        g = mk(2, [Edge(0, 0, 1), Edge(1, 0, 1)])
        assert _blocks_of(g) == [frozenset({0, 1})]

    def test_ties_ordered_by_sorted_vertices(self):
        # two 4-cycles through vertex 0; the DFS closes {0,2,7,8} first,
        # the sorted vertex lists put {0,1,3,6} first
        g = mk(9, ring([0, 2, 7, 8], 0) + ring([0, 3, 1, 6], 4))
        assert _blocks_of(g) == [frozenset({0, 1, 3, 6}),
                                 frozenset({0, 2, 7, 8})]

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx(self, g):
        simple = nx.Graph()
        simple.add_nodes_from(g.vertices)
        simple.add_edges_from((e.u, e.v) for e in g.edges() if not e.is_loop())
        got = _blocks_of(g)
        assert len(got) == len(set(got))
        assert set(got) == {frozenset(c)
                            for c in nx.biconnected_components(simple)}
        assert got == sorted(got, key=lambda b: (min(b), len(b), sorted(b)))


class TestHamiltonianPairs:
    def test_square_with_three_external_vertices(self):
        edges = ring([0, 1, 2, 3], 0)
        edges += [Edge(4, 0, 4), Edge(5, 1, 4), Edge(6, 2, 4)]
        g = mk(5, edges)
        assert hamiltonian_pairs(g, [0, 1, 2, 3]) == [(0, 1), (1, 2)]


class TestMatchingAndCycles:
    def _two_rings(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 12)), 8)
        cross = [Edge(12, 8, 0), Edge(13, 9, 2), Edge(14, 10, 4)]
        g = mk(12, edges + cross)
        s = cover_ids(edges)
        return g, s

    def test_local_3_matching_disjoint_cross_edges(self):
        g, s = self._two_rings()
        ctx = build_context(g, s)
        got = local_3_matching(ctx, ctx.block, {8})
        assert len(got) >= 3
        ends = [(e.u, e.v) for e in got]
        flat = [v for uv in ends for v in uv]
        assert len(set(flat)) == len(flat)

    def test_anchored_cycle_respects_gates(self):
        g, s = self._two_rings()
        ctx = build_context(g, s)
        got = _anchored_cycle(ctx, 8, 0, gate1=({8}, {9}))
        assert got is not None
        ids, (a1, a2), _ = got
        assert sorted((a1, a2)) == [8, 9]
        assert set(ids) <= {12, 13, 14}

    def test_anchored_cycle_infeasible_gate(self):
        g, s = self._two_rings()
        ctx = build_context(g, s)
        assert _anchored_cycle(ctx, 8, 0, gate1=({11}, {11})) is None


def random_rings_contexts(rng, count):
    """`build_context` of `count` random `rings` inputs: an 8-cycle anchor
    and two to four more cycles of 4 to 8 edges, joined by random cross
    edges. Inputs that leave the anchor in no block are redrawn."""
    out = []
    while len(out) < count:
        sizes = [8] + [rng.randint(4, 8) for _ in range(rng.randint(2, 4))]
        n = sum(sizes)
        cross = [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(3, 2 * len(sizes)))]
        g, s = rings(sizes, cross)
        try:
            out.append(build_context(g, s))
        except InternalContradiction:
            continue
    return out


class TestAnchoredCycleMatchesReference:
    """`_anchored_cycle` and `_arc_keeping` against their copies in
    `reference.py`, on every ordered pair of components of random
    contexts."""

    def gates(self, ctx, r1, r2):
        """(gate1, gate2, allowed) triples: no gate, r1 left at two
        vertices, and r1 entered at a Hamiltonian pair with r2 left at two
        vertices, each inside the anchor block and unrestricted."""
        vs1, vs2 = ctx.comp_vertices(r1), ctx.comp_vertices(r2)
        shapes = [(None, None), ((vs1, vs1), None)]
        shapes += [(({u}, {v}), (vs2, vs2))
                   for u, v in hamiltonian_pairs(ctx.g, vs1)[:2]]
        return [(g1, g2, allowed) for g1, g2 in shapes
                for allowed in (ctx.block, None)]

    def test_equal_on_random_rings(self, rng):
        found = arcs = 0
        for ctx in random_rings_contexts(rng, 300):
            reps = sorted(ctx.comp_edges)
            for r1 in reps:
                for r2 in reps:
                    if r1 == r2:
                        continue
                    for gate1, gate2, allowed in self.gates(ctx, r1, r2):
                        got = _anchored_cycle(ctx, r1, r2, gate1, gate2,
                                              allowed)
                        assert got == reference.anchored_cycle(
                            ctx, r1, r2, gate1, gate2, allowed)
                        if got is None:
                            continue
                        found += 1
                        comps = _cycle_comps(ctx, got[0])
                        if len(comps) < 3:
                            continue
                        for start in comps:
                            for end in comps:
                                for want in comps:
                                    arcs += 1
                                    assert _arc_keeping(
                                        ctx, got[0], start, end, want) == \
                                        reference.arc_keeping(
                                            ctx, got[0], start, end, want)
        # the inputs reach both answers and cycles long enough for arcs
        assert found > 1000 and arcs > 1000


class TestShortcutEdge:
    def test_five_cycle_with_crossing_chords(self):
        edges = ring([0, 1, 2, 3, 4], 0)
        edges += [Edge(5, 0, 5), Edge(6, 5, 2), Edge(7, 1, 6), Edge(8, 6, 3)]
        g = mk(7, edges)
        eid = shortcut_edge(g, range(5))
        assert eid is not None
        assert is_2ec(g.without_edges([eid]))

    def test_no_removable_edge_on_bare_cycle(self):
        g = mk(4, ring([0, 1, 2, 3], 0))
        assert shortcut_edge(g, range(4)) is None


class TestAdjacentMerge:
    def test_square_next_to_anchor(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 12)), 8)
        cross = [Edge(12, 8, 0), Edge(13, 9, 2), Edge(14, 10, 4)]
        g = mk(12, edges + cross)
        s = cover_ids(edges)
        new_s, move = glue_step(g, s)
        assert move.rule == "adjacent_merge"
        assert move.cost_delta == 0
        assert len(components(g.spanning(new_s))) == 1
        assert is_2ec(g.spanning(new_s))
        # one square edge is traded for the Hamiltonian path
        assert len(new_s) == len(s) + 1

    def test_short_cycle_merge_direct(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 13)), 8) \
            + ring(list(range(13, 19)), 13)
        cross = [Edge(19, 8, 0), Edge(20, 9, 13), Edge(21, 14, 1),
                 Edge(22, 10, 15)]
        g = mk(19, edges + cross)
        s = cover_ids(edges)
        ctx = build_context(g, s)
        assert ctx.anchor == 0
        got = shortcut_c4_local_c5(ctx, 8, 0, ctx.block)
        assert got is not None
        ids, u1, v1, path = got
        assert {u1, v1} == {8, 9}
        assert set(path) == set(range(8, 13))
        _, move = glue_c4_local_c5(ctx, 8)
        assert move.rule == "short_cycle_merge"
        assert move.cost_delta >= 0


class TestDoubleEdge:
    def test_two_large_components(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 17)), 8)
        cross = [Edge(17, 8, 0), Edge(18, 11, 3), Edge(19, 14, 6)]
        g = mk(17, edges + cross)
        s = cover_ids(edges)
        new_s, move = glue_step(g, s)
        assert move.rule == "double_edge_merge"
        assert move.cost_delta == 0
        assert new_s == s | {17, 18}
        assert len(components(g.spanning(new_s))) == 1


class TestDegenerateSixCycle:
    def base(self, extra):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 14)), 8) \
            + ring(list(range(14, 19)), 14)
        cross = [Edge(19, 8, 0), Edge(20, 10, 2), Edge(21, 12, 4),
                 Edge(22, 9, 14)]
        nid = 23
        for u, v in extra:
            cross.append(Edge(nid, u, v))
            nid += 1
        g = mk(19, edges + cross)
        return g, cover_ids(edges)

    def test_opposite_escape_pair(self):
        # second cross edge sits opposite the first on the 6-cycle
        g, s = self.base([(11, 15)])
        new_s, move = glue_step(g, s)
        assert move.rule == "degenerate_rewire"
        assert move.cost_delta > 0
        assert move.removed == {8, 10}
        assert move.added == {19, 20, 22, 23}
        assert len(components(g.spanning(new_s))) == 1
        assert is_2ec(g.spanning(new_s))

    def test_matched_pair_into_pendant_cycle(self):
        # both escape edges leave the same 6-cycle vertex
        g, s = self.base([(9, 16), (12, 17)])
        new_s, move = glue_step(g, s)
        assert move.rule == "degenerate_rewire"
        assert move.cost_delta >= 0
        assert len(components(g.spanning(new_s))) == 1
        assert is_2ec(g.spanning(new_s))

    def test_two_pendant_five_cycles(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 14)), 8) \
            + ring(list(range(14, 19)), 14) + ring(list(range(19, 24)), 19)
        cross = [Edge(24, 8, 0), Edge(25, 10, 2), Edge(26, 12, 4),
                 Edge(27, 9, 14), Edge(28, 11, 19),
                 Edge(29, 15, 8), Edge(30, 20, 10)]
        g = mk(24, edges + cross)
        s = cover_ids(edges)
        new_s, move = glue_step(g, s)
        assert move.rule == "pendant_pair_rewire"
        assert move.cost_delta == 0
        # the three short cycles merge; the anchor stays separate this move
        comps = components(g.spanning(new_s))
        assert len(comps) == 2
        assert set(range(8)) in [set(c) for c in comps]
        final, moves = glue_all(g, s)
        assert len(components(g.spanning(final))) == 1
        assert cover_cost(g, final) <= cover_cost(g, s)


class TestNonLocalFiveCycle:
    def gadget(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 13)), 8) \
            + ring(list(range(13, 19)), 13) + ring(list(range(19, 24)), 19)
        cross = [Edge(24, 8, 0), Edge(25, 10, 16), Edge(26, 11, 17),
                 Edge(27, 14, 1), Edge(28, 9, 19), Edge(29, 12, 20),
                 Edge(30, 11, 21)]
        g = mk(24, edges + cross)
        return g, cover_ids(edges)

    def test_three_component_block_with_second_block(self):
        g, s = self.gadget()
        new_s, move = glue_step(g, s)
        assert move.rule == "pendant_5cycle_merge"
        assert move.cost_delta >= 0
        assert len(components(g.spanning(new_s))) == 1
        assert is_2ec(g.spanning(new_s))
        # exactly one edge of the 5-cycle got traded away
        assert len(move.removed) == 1
        assert move.removed < frozenset(range(8, 13))


class TestSecondBlockMerges:
    """Each gadget reaches one branch of the merges that route a second
    cycle through a second block at c1 and then delete one c1 edge. The
    anchor is the 8- or 9-cycle on 0.. and the blocks of the contraction
    are listed by component representative."""

    def test_six_cycle_with_four_cycle_second_block(self):
        # blocks {0, 12} and {8, 12}: the 6-cycle 12 is the anchor's lone
        # partner and the 4-cycle 8 is traded for a Hamiltonian path
        g, s = rings([8, 4, 6], [(7, 12), (4, 14), (5, 16), (13, 8), (16, 9)])
        pinned_move(g, s, "long_cycle_merge", {18, 19, 21, 22}, {8, 12},
                    Fraction(1, 2))

    def test_six_cycle_with_grown_second_cycle(self):
        # blocks {0, 21} and {8, 14, 21}: the second cycle through the
        # 7-cycle 21 and the 6-cycle 8 grows through the 7-cycle 14
        g, s = rings([8, 6, 7, 7], [(0, 22), (3, 24), (5, 26), (22, 15),
                                    (18, 11), (9, 27), (13, 21)])
        pinned_move(g, s, "long_cycle_merge", {28, 30, 31, 32, 34}, {21}, 1)

    def test_seven_cycle_second_cycle_pays(self):
        # blocks {0, 8} and {8, 15}: the 2-component second cycle pays
        g, s = rings([8, 7, 5], [(5, 8), (0, 12), (2, 10), (11, 18),
                                 (14, 18)])
        pinned_move(g, s, "long_cycle_merge", {21, 22, 23, 24}, {10}, 0)

    def test_pendant_five_cycle_with_four_cycle_second_block(self):
        # blocks {0, 8, 17} and {8, 13}: the 5-cycle 8 closes a cycle with
        # the anchor and the 6-cycle 17, then the 4-cycle 13 is traded
        g, s = rings([8, 5, 4, 6], [(1, 10), (12, 22), (22, 7), (11, 14),
                                    (12, 15), (9, 13)])
        pinned_move(g, s, "pendant_5cycle_merge", {23, 24, 25, 26, 28},
                    {9, 13}, Fraction(3, 4))

    def test_pendant_five_cycle_with_grown_second_cycle(self):
        # blocks {0, 15, 25} and {9, 15, 20}: the second cycle through the
        # 5-cycles 15 and 20 grows through the 6-cycle 9
        g, s = rings([9, 6, 5, 5, 6], [(0, 27), (30, 17), (19, 6), (15, 13),
                                       (11, 20), (20, 16), (9, 17)])
        pinned_move(g, s, "pendant_5cycle_merge", {31, 32, 33, 35, 36, 37},
                    {16}, Fraction(1, 2))


class TestNonLocalFiveCycleExits:
    def test_three_component_block_cycle_pays(self):
        # blocks {0, 8, 13} and {8, 20}: anchor, 5-cycle and 7-cycle
        g, s = rings([8, 5, 7, 4], [(4, 12), (10, 19), (14, 6), (12, 23)])
        pinned_move(g, s, "cycle_merge", {24, 25, 26}, (), 0)

    def test_four_component_block_cycle_pays(self):
        # blocks {0, 8, 13, 23} and {8, 19}
        g, s = rings([8, 5, 6, 4, 6], [(7, 8), (8, 17), (16, 26), (28, 7),
                                       (9, 22)])
        pinned_move(g, s, "cycle_merge", {29, 30, 31, 32}, (), Fraction(1, 4))

    def test_four_component_block_pendant_finish(self):
        # blocks {0, 8, 13, 18}, {8, 23}, {13, 27} and {18, 31}: three
        # 5-cycles in the anchor block, each with a block of its own
        g, s = rings([8, 5, 5, 5, 4, 4, 8],
                     [(12, 19), (22, 16), (16, 0), (5, 10), (8, 26),
                      (11, 24), (12, 25), (16, 27), (21, 35)])
        pinned_move(g, s, "pendant_5cycle_merge",
                    {39, 40, 41, 42, 44, 45}, {11, 24}, Fraction(3, 4))

    def test_pinched_cycle_is_rerouted(self):
        # the anchor block holds the 5-cycles 8, 13 and 18; 13 and 18 meet
        # the anchor at 13 and 18 only, so no adjacent merge fits. The cycle
        # 0-13-8-18-0 leaves the 5-cycle 8 twice at 8 (edges 42, 43 come
        # first), pays 2 + 3 * 5/4 = 4 + 7/4, and is unpinned through 10-16.
        # Each 5-cycle has a second block with a 6-cycle (23, 29, 35).
        g, s = rings([8, 5, 5, 5, 6, 6, 6],
                     [(8, 15), (8, 20), (10, 16), (11, 21), (13, 0),
                      (18, 4), (8, 23), (10, 25), (11, 27), (15, 29),
                      (16, 31), (20, 35), (21, 37)])
        pinned_move(g, s, "pendant_5cycle_merge",
                    {42, 43, 45, 46, 47, 49}, {10}, Fraction(1, 4))

    def test_reroute_detour_keeps_the_anchor_arc(self):
        # the pinched cycle above, with a fourth 6-cycle 41 in the anchor
        # block: 10-41 replaces 10-16, and 44-2 ties 41 to the anchor. The
        # unpinning edge 10-41 detours through 41 and lands on the anchor,
        # which is not next to 8 on the cycle, so the cycle keeps its arc
        # from the anchor back to 8 through the side that holds it
        g, s = rings([8, 5, 5, 5, 6, 6, 6, 6],
                     [(8, 15), (8, 20), (10, 41), (11, 21), (13, 0),
                      (18, 4), (8, 23), (10, 25), (11, 27), (15, 29),
                      (16, 31), (20, 35), (21, 37), (44, 2)])
        pinned_move(g, s, "pendant_5cycle_merge",
                    {47, 49, 51, 53, 55, 60}, {10}, Fraction(1, 2))

    def test_reroute_detour_lands_next_to_c1(self):
        # the same input with 44-16 in place of 44-2: the detour through 41
        # lands on the 5-cycle 13, a cycle neighbour of 8, and replaces the
        # cycle edge between them
        g, s = rings([8, 5, 5, 5, 6, 6, 6, 6],
                     [(8, 15), (8, 20), (10, 41), (11, 21), (13, 0),
                      (18, 4), (8, 23), (10, 25), (11, 27), (15, 29),
                      (16, 31), (20, 35), (21, 37), (44, 16)])
        pinned_move(g, s, "pendant_5cycle_merge",
                    {48, 49, 51, 52, 53, 55, 60}, {10}, Fraction(3, 4))

    def test_three_component_block_cycle_grows(self):
        # blocks {0, 8, 13} and {8, 21}: the cycle that leaves the 5-cycle
        # 8 at two vertices first closes on the anchor alone, then grows
        # through the 8-cycle 13 before it pays
        g, s = rings([8, 5, 8, 6], [(12, 18), (10, 26), (11, 25), (10, 24),
                                    (10, 5), (19, 4), (12, 2), (11, 23)])
        pinned_move(g, s, "cycle_merge", {27, 32, 33}, (), Fraction(1, 4))


class TestFallbackUnion:
    def test_three_large_components(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 16)), 8) \
            + ring(list(range(16, 24)), 16)
        cross = [Edge(24, 0, 8), Edge(25, 9, 16), Edge(26, 17, 1)]
        g = mk(24, edges + cross)
        s = cover_ids(edges)
        new_s, move = glue_step(g, s)
        assert move.rule == "cycle_merge"
        assert move.added == {24, 25, 26}
        assert move.removed == frozenset()
        assert move.cost_delta == 1
        assert len(components(g.spanning(new_s))) == 1


class TestGlueAll:
    def test_single_component_is_identity(self):
        edges = ring(list(range(8)), 0)
        g = mk(8, edges)
        s = cover_ids(edges)
        final, moves = glue_all(g, s)
        assert final == s
        assert moves == []

    def test_component_count_strictly_decreases(self):
        edges = ring(list(range(8)), 0) + ring(list(range(8, 16)), 8) \
            + ring(list(range(16, 24)), 16)
        cross = [Edge(24, 0, 8), Edge(25, 9, 16), Edge(26, 17, 1),
                 Edge(27, 2, 10)]
        g = mk(24, edges + cross)
        s = cover_ids(edges)
        final, moves = glue_all(g, s)
        assert len(moves) <= 2
        assert is_2ec(g.spanning(final))
        assert Fraction(len(final)) == cover_cost(g, final) - 2

    def test_end_to_end_random(self, rng):
        for trial in range(6):
            g = random_2ec_graph(rng, rng.randint(9, 13))
            f = frozenset()
            h = initial_cover(g, f)
            cov = canonicalize(g, h)
            cov = cover_all(g, cov)
            final, moves = glue_all(g, cov)
            sub = g.spanning(final)
            assert sub.n == g.n
            assert is_2ec(sub)
            assert cover_cost(g, final) <= cover_cost(g, cov)
            assert Fraction(len(final)) == cover_cost(g, final) - 2

    def test_deterministic(self, rng):
        g = random_2ec_graph(rng, 12)
        h = canonicalize(g, initial_cover(g, frozenset()))
        h = cover_all(g, h)
        a, am = glue_all(g, h)
        b, bm = glue_all(g, h)
        assert a == b
        assert [m.rule for m in am] == [m.rule for m in bm]
