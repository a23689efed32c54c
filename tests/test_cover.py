import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from twoec.cover import (canonical_violations, canonicalize, cover_cost,
                         enumerate_guesses, initial_cover, is_tf2ec)
from twoec.graph import Edge, Graph, components

import reference
from conftest import gnp_2ec, random_2ec_graph, random_covers
from reference import subdivided_cover


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


class TestGuesses:
    def test_path_eight(self):
        g = Graph.from_edge_list(8, [(i, i + 1) for i in range(7)])
        guesses = list(enumerate_guesses(g))
        assert guesses == [frozenset(range(7))]

    def test_c8(self):
        g = Graph.from_edge_list(8, cycle(8))
        guesses = list(enumerate_guesses(g))
        assert len(guesses) == 8
        assert all(len(f) == 7 for f in guesses)
        assert len(set(guesses)) == 8

    def test_star(self):
        g = Graph.from_edge_list(9, [(0, i) for i in range(1, 9)])
        guesses = list(enumerate_guesses(g))
        assert len(guesses) == 8

    def test_valid_trees_no_duplicates(self, rng):
        g = gnp_2ec(rng, 10, 0.4)
        seen = set()
        for f in enumerate_guesses(g):
            assert f not in seen
            seen.add(f)
            sub = g.subgraph(f)
            assert len(f) == 7 and sub.n == 8
            assert len(components(sub)) == 1  # connected + 7 edges => tree
        assert seen

    def test_matches_recursive_enumerator(self):
        # the same trees in the same order as the recursion that includes an
        # edge before it skips it: on K8 (262,144 trees) and on 200
        # multigraphs with loops, parallel edges and arbitrary ids
        rng = random.Random(20261021)
        graphs = [Graph.from_edge_list(8, [(a, b) for a in range(8)
                                           for b in range(a + 1, 8)])]
        for _ in range(200):
            n = rng.randint(8, 10)
            vs = rng.sample(range(3 * n), n)
            m = rng.randint(n - 1, n + 7)
            graphs.append(Graph(vs, [
                Edge(i, rng.choice(vs), rng.choice(vs))
                for i in rng.sample(range(4 * m + 1), m)]))
        kinds = Counter()
        for g in graphs:
            got = list(enumerate_guesses(g))
            assert got == list(reference.guesses_by_recursion(g))
            kinds["trees"] += bool(got)
            kinds["loop"] += any(e.is_loop() for e in g.edges())
            kinds["parallel"] += len({e.ends for e in g.edges()}) < g.m
        assert min(kinds.values()) >= 100, kinds


class TestInitialCover:
    def test_c8_guess(self):
        g = Graph.from_edge_list(8, cycle(8))
        f = frozenset(range(7))
        h = initial_cover(g, f)
        assert h == frozenset(range(8))

    def test_matches_forced_oracle(self, rng, structured_shapes):
        # forcing the guess inside min_tf2ec gives the cover that subdividing
        # the guessed edges gives, with no guess and with the first guesses
        # of the structured shapes and of random graphs
        graphs = list(structured_shapes.values())
        graphs += [random_2ec_graph(rng, rng.randint(8, 11))
                   for _ in range(10)]
        for g in graphs:
            for f in [frozenset()] + list(islice(enumerate_guesses(g), 10)):
                h = initial_cover(g, f)
                assert f <= h
                assert is_tf2ec(g, h)
                assert h == subdivided_cover(g, f)

    def test_guess_lands_in_big_component(self, rng):
        g = random_2ec_graph(rng, 12)
        f = next(iter(enumerate_guesses(g)))
        h = initial_cover(g, f)
        sub = g.spanning(h)
        f_vertices = set(g.subgraph(f).vertices)
        for comp in components(sub):
            if f_vertices & set(comp):
                assert f_vertices <= set(comp)
                assert len(comp) >= 8


def whole(g):
    """cover_cost of g as a cover of itself."""
    return cover_cost(g, g.edge_set())


class TestCredits:
    def test_five_cycle(self):
        assert whole(Graph.from_edge_list(5, cycle(5))) == 5 + Fraction(5, 4)

    def test_nine_edge_component(self):
        s = Graph.from_edge_list(8, cycle(8) + [(0, 4)])
        assert whole(s) == 9 + Fraction(2)

    def test_complex_two_blocks_one_bridge(self):
        pairs = cycle(6) + cycle(6, offset=6) + [(0, 6)]
        s = Graph.from_edge_list(12, pairs)
        led = reference.credits(s)
        assert led.component_credits == {0: Fraction(1)}
        assert sorted(led.block_credits.values()) == [Fraction(1), Fraction(1)]
        assert list(led.bridge_credits.values()) == [Fraction(1, 4)]
        assert whole(s) == 13 + Fraction(13, 4)

    def test_cost_examples(self):
        two_squares = Graph.from_edge_list(8, cycle(4) + cycle(4, offset=4))
        assert whole(two_squares) == Fraction(10)
        eight = Graph.from_edge_list(8, cycle(8))
        assert whole(eight) == Fraction(10)
        mixed = Graph.from_edge_list(14, cycle(6) + cycle(8, offset=6))
        assert whole(mixed) == Fraction(35, 2)
        assert whole(mixed) <= Fraction(5, 4) * 14


class TestPieces:
    def test_cost_matches_ledger(self):
        for g, h in random_covers(20261019):
            assert cover_cost(g, h) == reference.cost(g.spanning(h))


class TestCanonicalize:
    def test_already_canonical_unchanged(self):
        g = Graph.from_edge_list(8, cycle(8) + [(0, 3)])
        h = frozenset(range(8))
        assert canonicalize(g, h) == h

    def test_chord_dropped(self):
        g = Graph.from_edge_list(8, cycle(8) + [(0, 3)])
        assert canonicalize(g, frozenset(range(9))) == frozenset(range(8))

    def test_bowtie_merged_into_big_component(self):
        # bowtie component 0..4 next to a C8 component, with cross edges
        pairs = ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
                 + cycle(8, offset=5)
                 + [(1, 5), (2, 6), (4, 7)])
        g = Graph.from_edge_list(13, pairs)
        h = frozenset(range(6)) | frozenset(range(6, 14))
        assert is_tf2ec(g, h)
        cc = canonicalize(g, h)
        assert len(cc) <= len(h)
        sub = g.spanning(cc)
        assert len(components(sub)) == 1
        assert not canonical_violations(g, cc)
        assert cover_cost(g, cc) <= Fraction(5, 4) * len(cc)

    def test_cost_bound_on_random_covers(self, rng):
        for _ in range(8):
            g = random_2ec_graph(rng, rng.randint(9, 13))
            f = next(iter(enumerate_guesses(g)))
            h = initial_cover(g, f)
            cc = canonicalize(g, h)
            assert len(cc) <= len(h)
            assert not canonical_violations(g, cc)
            assert cover_cost(g, cc) <= Fraction(5, 4) * len(cc)

    def test_rejects_non_cover(self):
        g = Graph.from_edge_list(4, cycle(4))
        with pytest.raises(ValueError):
            canonicalize(g, frozenset([0, 1]))
