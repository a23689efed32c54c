import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from twoec import reduction
from twoec.errors import InfeasibleError, InternalContradiction
from twoec.graph import (VIRTUAL_BASE, Edge, Graph, components, is_2ec,
                         is_2vc)
from twoec.harness import solve
from twoec.oracle import min_2ecss
from twoec.reduction import (CutPartition, ReductionTrace, handle_two_cut,
                             partition_non_isolating, reduce)

import test_graph
from conftest import random_2ec_graph
from reference import (irrelevant_one_at_a_time, is_structured,
                       partition_by_graphs)


def exact_alg(g):
    return min_2ecss(g, time.monotonic() + 120.0, vertex_cap=64)


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


class TestPartition:
    def test_two_c4_sharing_opposite_pair(self):
        # 0 and 1 opposite on both squares
        g = Graph.from_edge_list(6, [(0, 2), (2, 1), (1, 3), (3, 0),
                                     (0, 4), (4, 1), (1, 5), (5, 0)])
        cut = partition_non_isolating(g, 0, 1)
        assert {cut.v1, cut.v2} == {frozenset({2, 3}), frozenset({4, 5})}

    def test_three_components(self):
        # three parallel 2-paths between 0 and 1
        pairs = []
        for a in (2, 4, 6):
            pairs += [(0, a), (a, a + 1), (a + 1, 1)]
        g = Graph.from_edge_list(8, pairs)
        cut = partition_non_isolating(g, 0, 1)
        assert len(cut.v1) == 2 and len(cut.v2) == 4
        # one side is the union of two whole components
        assert cut.v2 in (frozenset({2, 3, 4, 5}), frozenset({2, 3, 6, 7}),
                          frozenset({4, 5, 6, 7}))

    def test_four_components(self):
        pairs = []
        for a in (2, 4, 6, 8):
            pairs += [(0, a), (a, a + 1), (a + 1, 1)]
        g = Graph.from_edge_list(10, pairs)
        cut = partition_non_isolating(g, 0, 1)
        assert len(cut.v1) == 4 and len(cut.v2) == 4
        assert cut.v1 | cut.v2 == frozenset(range(2, 10))

    def test_rejects_isolating(self):
        g = Graph.from_edge_list(6, cycle(6))
        with pytest.raises(ValueError):
            partition_non_isolating(g, 0, 2)  # isolates vertex 1

    def test_matches_graph_building_partition(self, rng):
        # the same sides, or the same ValueError, as the partition that
        # builds g - {u, v}: at every pair of the cut scan's seeded
        # 2-connected inputs, of random 2-connected graphs and of 3-5
        # chains between 0 and 1, up to 12 vertices, and at 30 pairs of
        # each larger one
        graphs = test_graph.TestCuts.cut_inputs() + [
            random_2ec_graph(rng, rng.randint(3, 16)) for _ in range(150)]
        for _ in range(40):
            pairs, n = [], 2
            for _chain in range(rng.randint(3, 5)):
                k = rng.randint(1, 3)
                path = [0, *range(n, n + k), 1]
                pairs += zip(path, path[1:])
                n += k
            graphs.append(Graph.from_edge_list(n, pairs))
        kinds = Counter()
        for g in graphs:
            pairs = list(itertools.combinations(g.vertices, 2))
            if g.n > 12:
                pairs = rng.sample(pairs, 30)
            for u, v in pairs:
                try:
                    want = partition_by_graphs(g, u, v)
                except ValueError as exc:
                    want = str(exc)
                try:
                    got = partition_non_isolating(g, u, v)
                except ValueError as exc:
                    got = str(exc)
                assert got == want
                if isinstance(want, str):
                    kinds["small" if want.startswith("need") else "no cut"] \
                        += 1
                else:
                    kinds[min(len(components(g.without_vertices([u, v]))),
                              4)] += 1
        assert min(kinds.values()) >= 30 and len(kinds) == 5, kinds


class TestReduceSmall:
    def test_matches_oracle_on_random(self, rng):
        for _ in range(25):
            n = rng.randint(4, 12)
            g = random_2ec_graph(rng, n)
            sol, trace = reduce(g)
            assert len(sol) == len(min_2ecss(g))
            assert is_2ec(g.spanning(sol))
            assert "dispatch_alg" not in trace.steps

    def test_not_2ec_rejected(self):
        g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InfeasibleError):
            reduce(g)

    def test_one_cut_of_two_k4(self):
        k4a = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        k4b = [(a, b) for a in [0, 4, 5, 6] for b in [0, 4, 5, 6]
               if a < b]
        g = Graph.from_edge_list(7, k4a + k4b)
        sol, _ = reduce(g)
        assert len(sol) == 8 == len(min_2ecss(g))

    def test_one_cut_hands_loop_pair_to_oracle(self):
        # vertex 17 hangs off 0 by edges 17 and 19 and carries loop 18; the
        # one-cut rule solves {0, 17} exactly, which must skip the loop
        g = Graph.from_edge_list(18, cycle(17) + [(0, 17), (17, 17), (0, 17)])
        sol, report = solve(g)
        assert sorted(sol) == list(range(17)) + [17, 19]
        assert report["verdict"] == "OK"

    def test_many_loops_do_not_recurse(self):
        # one parallel_loop step per loop, taken in a loop, not a recursion
        g = Graph.from_edge_list(17, cycle(17) + [(0, 0)] * 1100)
        sol, trace = reduce(g)
        assert sol == frozenset(range(17))
        assert trace.steps.count("parallel_loop") == 1100
        # small graphs go to the exact search first, which must not
        # recurse per edge either
        for extra in ([(0, 0)] * 1200, [(0, 1)] * 1200):
            g = Graph.from_edge_list(5, cycle(5) + extra)
            assert reduce(g)[0] == frozenset(range(5))
            assert min_2ecss(g) == frozenset(range(5))

    @pytest.mark.parametrize("k", [5, 1000])
    def test_chain_of_blocks_splits_once(self, k):
        # k 5-cycles, each sharing one vertex with the next: one split into
        # all k blocks, one one_cut step per block after the first, and one
        # exact search per block. A rule that recursed once per block would
        # pass the recursion limit at k = 1000.
        g = Graph.from_edge_list(4 * k + 1, [(4 * c + i, 4 * c + (i + 1) % 5)
                                             for c in range(k)
                                             for i in range(5)])
        sol, trace = reduce(g)
        assert sol == frozenset(range(5 * k))
        assert trace.steps.count("one_cut") == k - 1
        assert trace.steps.count("brute_force") == k
        assert len(trace.steps) == 2 * k - 1

    def test_nested_two_cuts_do_not_recurse(self):
        # C120 plus the chord (0, 60) nests a type-AB cut inside each side
        # of the last; a reduction that recursed per cut would pass a
        # recursion limit set 150 frames above the caller's depth
        g = Graph.from_edge_list(120, cycle(120) + [(0, 60)])
        depth, f = 0, sys._getframe()
        while f is not None:
            depth, f = depth + 1, f.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            sol, report = solve(g, want_trace=True)
        finally:
            sys.setrecursionlimit(limit)
        assert sol == frozenset(range(120))
        assert report["trace"]["reduction_steps"].count("two_cut_type_AB") > 50

    def test_input_ids_at_the_dummy_base(self):
        # the dummy vertices and edges of the 2-cut rules are numbered above
        # every input id, so edge ids from VIRTUAL_BASE up do not collide
        pairs = cycle(40) + [(0, 20)]
        g = Graph.from_edge_list(40, pairs)
        shifted = Graph(range(40), [Edge(VIRTUAL_BASE + e.id, e.u, e.v)
                                    for e in g.edges()])
        sol, _ = solve(g)
        got, _ = solve(shifted)
        assert len(got) == 40
        assert got == frozenset(VIRTUAL_BASE + i for i in sol)


class TestReduceRules:
    def test_irrelevant_edge_on_big_cycle(self):
        g = Graph.from_edge_list(18, cycle(18) + [(0, 9)])
        sol, trace = reduce(g)
        assert is_2ec(g.spanning(sol))
        assert len(sol) == 18  # a Hamiltonian cycle is optimal
        assert "irrelevant" in trace.steps

    def test_irrelevant_closure_matches_one_at_a_time(self, rng, monkeypatch):
        # _red drops every edge at a listed cut in one round. Dropping the
        # smallest-id irrelevant edge per round instead keeps g 2-connected
        # at every step and reaches the same graph with as many removals.
        # At alpha 2 graphs above 7 vertices reach the rule, and nothing is
        # contractible (2/(alpha - 1) < 3), so the stand-in below records
        # the graphs offered to the contract rule and finds nothing either;
        # the first one is the closure.
        offered = []

        def record(g, alpha, deadline):
            offered.append(g)
            return None

        monkeypatch.setattr(reduction, "find_contractible_subgraph", record)
        several = 0
        for _ in range(60):
            g = random_2ec_graph(rng, rng.randint(8, 12),
                                 extra=rng.randint(2, 5))
            steps = irrelevant_one_at_a_time(g)
            assert all(is_2vc(h) for h in steps)
            offered.clear()
            _, trace = reduce(g, alpha=Fraction(2), alg=exact_alg)
            closure = offered[0]
            assert closure.vertices == steps[-1].vertices
            assert closure.edges() == steps[-1].edges()
            removed = len(steps) - 1
            assert trace.steps[:removed] == ["irrelevant"] * removed
            assert trace.steps[removed] != "irrelevant"
            several += removed >= 2
        assert several >= 10

    def test_contract_hanging_square(self):
        pairs = cycle(16) + [(16, 17), (17, 18), (18, 19), (19, 16),
                             (16, 0), (18, 8)]
        g = Graph.from_edge_list(20, pairs)
        sol, trace = reduce(g)
        assert is_2ec(g.spanning(sol))
        assert "contract" in trace.steps
        assert len(sol) == len(min_2ecss(g, vertex_cap=20))

    def test_both_big_barbell(self):
        # cycles on 2..18 and 19..35, joined through 0 and 1
        pairs = ([(i, i + 1) for i in range(2, 18)] + [(18, 2)]
                 + [(i, i + 1) for i in range(19, 35)] + [(35, 19)]
                 + [(0, 2), (0, 19), (1, 18), (1, 35)])
        g = Graph.from_edge_list(36, pairs)
        assert is_2ec(g)
        cut = CutPartition(0, 1, frozenset(range(2, 19)),
                           frozenset(range(19, 36)))
        sol = handle_two_cut(g, cut)
        assert is_2ec(g.spanning(sol))
        assert len(sol) == 36  # Hamiltonian, matches the trivial lower bound

    def test_type_ab_branch_on_cycle_split(self):
        g = Graph.from_edge_list(28, cycle(28))
        # relabel-free split: interior run 1..6 on one side, rest on the other
        cut = CutPartition(0, 7, frozenset(range(1, 7)),
                           frozenset(range(8, 28)))
        trace = ReductionTrace()
        sol = handle_two_cut(g, cut, trace=trace)
        assert is_2ec(g.spanning(sol))
        assert len(sol) == 28
        assert trace.steps[0] == "two_cut_type_AB"

    def test_type_c_branch_with_pendant_squares(self):
        # squares through u=0 and v=1, plus two long disjoint u-v paths
        pairs = [(0, 2), (2, 3), (3, 4), (4, 0),
                 (1, 5), (5, 6), (6, 7), (7, 1)]
        left = [8 + i for i in range(10)]
        right = [18 + i for i in range(10)]
        pairs += [(0, left[0])] + [(left[i], left[i + 1]) for i in range(9)] \
            + [(left[9], 1)]
        pairs += [(0, right[0])] + [(right[i], right[i + 1]) for i in range(9)] \
            + [(right[9], 1)]
        g = Graph.from_edge_list(28, pairs)
        assert is_2ec(g)
        cut = CutPartition(0, 1, frozenset({2, 3, 4, 5, 6, 7}),
                           frozenset(left + right))
        trace = ReductionTrace()
        sol = handle_two_cut(g, cut, trace=trace)
        assert is_2ec(g.spanning(sol))
        assert len(sol) == 30 == g.m  # every edge is forced by a degree-2 vertex
        assert trace.steps[0] == "two_cut_type_C"

    def test_broken_structured_solver_is_caught(self):
        # the prism C9 x K2 reduces by no rule and is dispatched whole; an
        # empty solution must raise, carrying the dispatched graph
        pairs = cycle(9) + cycle(9, offset=9) + [(i, i + 9) for i in range(9)]
        g = Graph.from_edge_list(18, pairs)
        with pytest.raises(InternalContradiction,
                           match="structured solver output not 2EC") as err:
            reduce(g, alg=lambda sub: frozenset())
        bad = err.value.counterexample
        assert (bad.n, bad.m) == (18, 27)
        assert (bad.vertices, bad.edges()) == (g.vertices, g.edges())


class TestMinPatch:
    """The patch that a 2-cut stitch adds back, on C6 (edge ids 0-5) plus
    the chord (0, 3)."""

    def graph(self):
        return Graph.from_edge_list(6, cycle(6) + [(0, 3)])

    def test_one_edge_closes_the_cycle(self):
        assert reduction._min_patch(self.graph(), frozenset(range(5)),
                                    2) == {5}

    def test_pair_closes_the_path(self):
        # no single edge makes the path 0-1-2-3-4 plus vertex 5 2EC
        assert reduction._min_patch(self.graph(), frozenset(range(4)),
                                    2) == {4, 5}

    def test_pair_beyond_the_limit_is_refused(self):
        with pytest.raises(InternalContradiction, match="no small patch"):
            reduction._min_patch(self.graph(), frozenset(range(4)), 1)


class TestReduceMedium:
    def test_random_instances_bound_and_contract(self, rng):
        for _ in range(6):
            n = rng.randint(17, 20)
            g = random_2ec_graph(rng, n)
            dispatched = []

            def alg(d):
                dispatched.append(d)
                return exact_alg(d)

            sol, _ = reduce(g, alg=alg)
            assert is_2ec(g.spanning(sol))
            opt = len(min_2ecss(g, time.monotonic() + 60.0, vertex_cap=25))
            assert len(sol) <= max(opt, (5 * opt) // 4 - 2)
            for d in dispatched:
                assert is_structured(d)


class TestStructured:
    def test_small_graph_fails(self):
        g = Graph.from_edge_list(15, cycle(15))
        rep = is_structured(g)
        assert not rep and rep.reason == "too_small"

    def test_cycle_has_non_isolating_cut(self):
        g = Graph.from_edge_list(16, cycle(16))
        rep = is_structured(g)
        assert not rep and rep.reason == "non_isolating_cut"

    def test_wheel_is_structured(self):
        pairs = cycle(15, offset=1) + [(0, i) for i in range(1, 16)]
        g = Graph.from_edge_list(16, pairs)
        rep = is_structured(g)
        assert rep.ok, rep
