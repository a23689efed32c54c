from fractions import Fraction

import pytest

from twoec.bridge_cover import (TcTree, _branch_partition,
                                _longest_tree_path, build_tc, cover_all,
                                cover_step, find_cheap_path, merge_two_paths)
from twoec.cover import (canonicalize, cover_cost, initial_cover,
                         enumerate_guesses)
from twoec.graph import Edge, Graph, bridges, components, is_2ec

from conftest import random_2ec_graph
from reference import branch_partition, reachable


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def dumbbell_pairs():
    """Two C4 blocks joined by one bridge, plus one cross edge in g."""
    pairs = cycle(4) + [(3, 4)] + cycle(4, offset=4) + [(0, 6)]
    return pairs, frozenset(range(9)), frozenset([9])


class TestBuildTc:
    def test_two_blocks_one_bridge(self):
        pairs, s, _ = dumbbell_pairs()
        g = Graph.from_edge_list(8, pairs)
        tc = build_tc(g, s, range(8))
        assert tc.tc_nodes == {0: "block", 4: "block"}
        assert tc.tc_edges == frozenset([4])
        assert tc.tree.m == 1

    def test_lonely_middle_node(self):
        pairs = cycle(4) + [(3, 4), (4, 5)] + cycle(4, offset=5) + [(0, 7)]
        g = Graph.from_edge_list(9, pairs)
        tc = build_tc(g, frozenset(range(10)), range(9))
        assert tc.tc_nodes == {0: "block", 4: "lonely", 5: "block"}
        assert sorted(tc.tc_edges) == [4, 5]
        assert all(tc.tc_nodes[v] == "block"
                   for v in tc.tree.vertices if tc.tree.degree(v) == 1)

    def test_rejects_bridgeless_component(self):
        g = Graph.from_edge_list(4, cycle(4))
        with pytest.raises(ValueError):
            build_tc(g, frozenset(range(4)), range(4))


class TestReachable:
    def test_parallel_cross_edge(self):
        pairs, s, _ = dumbbell_pairs()
        g = Graph.from_edge_list(8, pairs)
        tc = build_tc(g, s, range(8))
        assert reachable(tc, [0]) == frozenset([4])
        assert reachable(tc, [4]) == frozenset([0])

    def test_path_through_other_component(self):
        # blocks 0..3 and 6..9 of the bridged component; the augmenting
        # route runs through the separate C4 on 10..13
        pairs = (cycle(4) + [(3, 4), (4, 5), (5, 6)] + cycle(4, offset=6)
                 + cycle(4, offset=10) + [(0, 10), (11, 6)])
        g = Graph.from_edge_list(14, pairs)
        s = frozenset(range(15))
        tc = build_tc(g, s, range(10))
        assert reachable(tc, [0]) == frozenset([6])
        assert reachable(tc, [6]) == frozenset([0])

    def test_symmetry(self):
        g, s, _ids = figure_instance()
        tc = build_tc(g, s, range(16))
        nodes = sorted(tc.tc_nodes)
        for u in nodes:
            for v in nodes:
                if u != v:
                    assert (v in reachable(tc, [u])) == (u in reachable(tc, [v]))


class TestCheapPath:
    def test_dumbbell_cross_edge_is_cheap(self):
        pairs, s, cross = dumbbell_pairs()
        g = Graph.from_edge_list(8, pairs)
        tc = build_tc(g, s, range(8))
        mv = find_cheap_path(tc)
        assert mv is not None
        assert mv.added == cross
        assert mv.bound == Fraction(1, 4)

    def test_two_bridges_to_lonely_is_not_cheap(self):
        # one block, two bridges to a lonely node, block on the far end;
        # the only cross edge lands 2 bridges away: 2/4 + 1 - 2 < 0
        pairs = (cycle(4) + [(3, 4), (4, 5)] + cycle(4, offset=5) + [(0, 4)])
        g = Graph.from_edge_list(9, pairs)
        tc = build_tc(g, frozenset(range(10)), range(9))
        assert find_cheap_path(tc) is None
        assert reachable(tc, [0]) == frozenset([4])

    def test_cover_step_applies_cheap_move(self):
        pairs, s, cross = dumbbell_pairs()
        g = Graph.from_edge_list(8, pairs)
        mv = cover_step(g, s, range(8))
        assert mv.rule == "cheap_path"
        assert mv.added == cross and mv.removed == frozenset()
        assert mv.cost_delta == Fraction(1, 4)
        new = g.spanning((s | mv.added) - mv.removed)
        assert not bridges(new) and is_2ec(new.induced(range(8)))


def figure_instance():
    """Spine block-u1-u2-u3-u4-block with a side block at u2 and a
    separate C4; one expensive path from each end block.

    Vertices: block 0..3, spine 4..7, far block 8..11, side block 12..15,
    spare component 16..19.
    """
    pairs = (cycle(4)                                    # ids 0..3
             + [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]  # ids 4..8
             + cycle(4, offset=8)                        # ids 9..12
             + cycle(4, offset=12) + [(5, 12)]           # ids 13..17
             + cycle(4, offset=16)                       # ids 18..21
             + [(0, 16), (16, 6), (12, 4)])              # ids 22..24
    g = Graph.from_edge_list(20, pairs)
    s = frozenset(range(22))
    return g, s, {"red": frozenset([22, 23]), "green": frozenset([24])}


class TestTwoPathMoves:
    def test_figure_merge_two_paths(self):
        g, s, ids = figure_instance()
        mv = cover_step(g, s, range(16))
        assert mv.rule == "merge_two_paths"
        assert mv.added == ids["red"] | ids["green"]
        assert mv.removed == frozenset()
        assert mv.cost_delta == 0
        new = g.spanning(s | mv.added)
        assert len(bridges(new)) == 2
        assert bridges(new) < bridges(g.spanning(s))

    def test_swap_deletes_a_bridge(self):
        # bare spine 0..3 -4-5-6- far branch; only expensive paths
        # b->u2 and u1->u4, so one spine bridge gets dropped
        pairs = (cycle(4)                                  # ids 0..3
                 + [(3, 4), (4, 5), (5, 6), (6, 7)]        # ids 4..7
                 + cycle(4, offset=7)                      # ids 8..11
                 + [(6, 11), (11, 12)] + cycle(4, offset=12)  # ids 12..17
                 + [(0, 5), (4, 11)])                      # ids 18, 19
        g = Graph.from_edge_list(16, pairs)
        s = frozenset(range(18))
        mv = cover_step(g, s, range(16))
        assert mv.rule == "two_path_swap"
        assert mv.added == frozenset([18, 19])
        assert mv.removed == frozenset([5])      # the u1-u2 bridge
        assert mv.cost_delta == 0
        new_s = (s | mv.added) - mv.removed
        assert len(new_s) == len(s) + 1
        new = g.spanning(new_s)
        assert len(bridges(new)) == 2
        assert bridges(new) < bridges(g.spanning(s))

    def test_lonely_node_beside_the_spine_is_reachable(self):
        # spine block 0..3 -4-5-6- 6-cycle 7..12, with 5-13 and 13 to the
        # 5-cycle 14..18 hanging off u2 = 5; b reaches the lonely 13, and
        # the side block pairs with the lonely 6
        pairs = (cycle(4) + [(2, 4), (4, 5), (5, 6)]       # ids 0..6
                 + cycle(6, offset=7) + [(6, 8), (5, 13)]  # ids 7..14
                 + cycle(5, offset=14) + [(13, 18)]        # ids 15..20
                 + [(13, 2), (18, 6)])                     # ids 21, 22
        g = Graph.from_edge_list(19, pairs)
        s = frozenset(range(21))
        mv = cover_step(g, s, range(19))
        assert (mv.rule, mv.added, mv.removed, mv.bound, mv.cost_delta) == \
            ("merge_two_paths", frozenset([21, 22]), frozenset(), 0,
             Fraction(1, 4))

    def test_block_reachable_from_b_and_u1(self):
        # bare spine block 0..3 -4-5-6- 6-cycle 7..12: b reaches only u2
        # and u1 reaches the far block, so the two paths merge
        pairs = (cycle(4) + [(1, 4), (4, 5), (5, 6)]       # ids 0..6
                 + cycle(6, offset=7) + [(6, 8)]           # ids 7..13
                 + [(1, 5), (9, 4)])                       # ids 14, 15
        g = Graph.from_edge_list(13, pairs)
        s = frozenset(range(14))
        mv = cover_step(g, s, range(13))
        assert (mv.rule, mv.added, mv.removed, mv.bound, mv.cost_delta) == \
            ("merge_two_paths", frozenset([14, 15]), frozenset(), 0, 0)

    def test_shared_internal_node_yields_block_link(self):
        # both given paths pass through the spare C4 on 10..13, so the
        # merge instead emits the direct block-to-block path through it
        pairs = (cycle(4) + [(3, 4), (4, 5), (5, 6)]       # ids 0..6
                 + cycle(4, offset=6)                      # ids 7..10
                 + cycle(4, offset=10)                     # ids 11..14
                 + [(0, 10), (10, 5), (6, 11), (11, 4)])   # ids 15..18
        g = Graph.from_edge_list(14, pairs)
        s = frozenset(range(15))
        tc = build_tc(g, s, range(10))
        added, bound, rule = merge_two_paths(tc, 0, 6, 5, 4)
        assert rule == "merge_shared"
        assert added == frozenset([15, 17])
        assert bound == Fraction(3, 4)


class TestCoverAll:
    def test_already_bridgeless_unchanged(self):
        g = Graph.from_edge_list(8, cycle(8) + [(0, 4), (2, 6)])
        cc = canonicalize(g, frozenset(range(8)))
        moves = []
        out = cover_all(g, cc, moves)
        assert out == cc
        assert moves == []

    def test_two_big_blocks_one_bridge_pair(self):
        pairs = (cycle(6) + [(5, 6), (6, 7)] + cycle(6, offset=7)
                 + [(0, 7)])
        g = Graph.from_edge_list(13, pairs)
        cc = canonicalize(g, frozenset(range(14)))
        moves = []
        out = cover_all(g, cc, moves)
        assert [mv.rule for mv in moves] == ["cheap_path"]
        assert out == frozenset(range(15))
        assert not bridges(g.spanning(out))
        assert cover_cost(g, out) <= cover_cost(g, cc)

    def test_random_end_to_end(self, rng):
        for _ in range(6):
            g = random_2ec_graph(rng, rng.randint(9, 13))
            f = next(iter(enumerate_guesses(g)))
            cc = canonicalize(g, initial_cover(g, f))
            out = cover_all(g, cc)
            sub = g.spanning(out)
            assert not bridges(sub)
            assert all(is_2ec(sub.induced(comp)) for comp in components(sub))
            assert cover_cost(g, out) <= cover_cost(g, cc)


class TestBranchPartition:
    def test_matches_reference_on_random_trees(self, rng):
        # random trees on scattered labels, split off a longest path
        branched = 0
        for _ in range(300):
            n = rng.randint(1, 24)
            labels = rng.sample(range(100), n)
            tree = Graph(labels, [Edge(k - 1, labels[k], labels[rng.randrange(k)])
                                  for k in range(1, n)])
            tc = TcTree(tree, tree, tree, {}, frozenset())
            path = _longest_tree_path(tc)
            got = _branch_partition(tc, path)
            assert got == branch_partition(tc, path)
            branched += bool(got)
        assert branched > 200
