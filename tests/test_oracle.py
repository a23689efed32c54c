import copy
import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import twoec
from twoec import oracle
from twoec.graph import (VIRTUAL_BASE, Edge, Graph, _index, _is_2ec,
                         _sub_index, biconnected_blocks, connected_subsets,
                         is_2ec, components)
from twoec.harness import generate, solve
from twoec.oracle import (
    _EdgeArrays, find_contractible_subgraph, min_2ecss, min_inner_edges,
    min_tf2ec, opt_type,
)
from twoec.errors import OracleBudgetError, OracleTimeout

from conftest import random_2ec_graph, random_multigraph, small_graphs
from reference import (_with_uv, check_cover_matching_identity,
                       classify_type, contractible_by_scan,
                       is_alpha_contractible, max_tf2matching, min_inner_2ec,
                       opt_typed_by_graphs, two_ec_blocks, two_ended_sets,
                       two_ends_each)


def c_n(n):
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def k_n(n):
    return Graph.from_edge_list(n, list(itertools.combinations(range(n), 2)))


def brute_min_2ecss(g):
    """Reference: exhaustive subset enumeration, smallest size then lex."""
    eids = g.edge_ids()
    # a 2EC spanning subgraph on n >= 2 vertices has at least n edges
    for k in range(g.n if g.n >= 2 else 0, len(eids) + 1):
        for combo in itertools.combinations(eids, k):
            if is_2ec(g.spanning(combo)):
                return frozenset(combo)
    raise AssertionError("input not 2EC")


def is_tf2ec(g, h):
    sub = g.spanning(h)
    if any(sub.degree(v) < 2 for v in g.vertices):
        return False
    for comp in components(sub):
        if len(comp) == 3:
            inner = sub.induced(comp)
            if inner.m == 3:
                return False
    return True


def brute_min_tf2ec(g, forced=frozenset()):
    """Reference: forced plus the fewest, then lex-first, other edges."""
    if any(g.degree(v) < 2 for v in g.vertices):
        return None  # no subgraph covers v twice
    rest = [e for e in g.edge_ids() if e not in forced]
    for k in range(len(rest) + 1):
        hits = [forced | set(c) for c in itertools.combinations(rest, k)
                if is_tf2ec(g, forced | set(c))]
        if hits:
            return min(hits, key=sorted)
    return None


def brute_max_tf2m(g):
    eids = g.edge_ids()
    best = frozenset()
    for k in range(len(eids), 0, -1):
        for combo in itertools.combinations(eids, k):
            sub = g.subgraph(combo)
            if any(sub.degree(v) > 2 for v in sub.vertices):
                continue
            tri = False
            for a, b, c in itertools.combinations(sub.vertices, 3):
                if len(sub.induced([a, b, c]).edges()) == 3:
                    tri = True
                    break
            if not tri:
                return frozenset(combo)
    return best


class TestMin2ecss:
    def test_cycle_is_its_own_optimum(self):
        for n in (3, 5, 8):
            assert min_2ecss(c_n(n)) == frozenset(range(n))

    def test_k4(self):
        # K4 optimum is a Hamiltonian cycle: 4 edges
        got = min_2ecss(k_n(4))
        assert len(got) == 4
        assert is_2ec(k_n(4).spanning(got))

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            n = rng.randint(4, 7)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, 4))
            got = min_2ecss(g)
            want = brute_min_2ecss(g)
            assert len(got) == len(want)
            assert sorted(got) == sorted(want)  # lex tie-break agreement

    @given(small_graphs().filter(is_2ec))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_on_multigraphs(self, g):
        # n <= 2, loops and parallel edges included
        assert min_2ecss(g) == brute_min_2ecss(g)

    @given(small_graphs().filter(lambda g: not is_2ec(g)))
    @settings(max_examples=50, deadline=None)
    def test_rejects_graphs_that_are_not_2ec(self, g):
        with pytest.raises(ValueError):
            min_2ecss(g)

    def test_two_vertex_loop_is_not_kept(self):
        # the two smallest ids are an edge and a loop: not 2EC
        g = Graph.from_edge_list(2, [(0, 1), (0, 0), (0, 1)])
        assert min_2ecss(g) == frozenset({0, 2})

    def test_vertex_cap(self):
        with pytest.raises(OracleBudgetError):
            min_2ecss(c_n(20), vertex_cap=16)

    def test_union_over_blocks(self):
        # every cycle lies in one block, and the (size, lex) tie-break
        # survives a disjoint union, so the optimum of g is the union of
        # the optima of its blocks, as exact sets; the reduction's one-cut
        # rule rests on this
        seen = Counter()
        for seed in range(300):
            g, k = chain_of_blocks(random.Random(seed))
            blocks = biconnected_blocks(g)
            assert len(blocks) == k
            want = frozenset().union(*(min_2ecss(g.subgraph(es, vs))
                                       for vs, es in blocks))
            assert min_2ecss(g) == want, seed
            seen[k] += 1
            seen["loop"] += any(e.is_loop() for e in g.edges())
            seen["parallel"] += len({e.ends for e in g.edges()}) < g.m
        assert len(seen) == 5 and min(seen.values()) >= 50

    def test_runs_without_networkx(self):
        # the solver must not need the test-only networkx package
        cases = [("gnp_2ec", 10), ("dumbbell", 12)]
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from twoec.harness import generate, solve\n"
            "from twoec.oracle import min_2ecss\n"
            f"for family, n in {cases!r}:\n"
            "    g = generate(family, n, 1)\n"
            "    print(sorted(min_2ecss(g)), sorted(solve(g)[0]))\n"
        )
        src = os.path.dirname(os.path.dirname(twoec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        want = []
        for family, n in cases:
            g = generate(family, n, 1)
            want.append(f"{sorted(min_2ecss(g))} {sorted(solve(g)[0])}")
        assert proc.stdout.splitlines() == want


class TestMinInnerEdges:
    @staticmethod
    def brute(g, inner):
        """Fewest inner edges that, with every other edge, give a 2EC
        spanning subgraph; ties to the lexicographically smallest set."""
        free = set(g.edge_ids()) - set(inner)
        for k in range(len(inner) + 1):
            for combo in itertools.combinations(sorted(inner), k):
                if is_2ec(g.spanning(free | set(combo))):
                    return k, frozenset(combo)
        raise AssertionError("input not 2EC")

    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            g = random_2ec_graph(rng, rng.randint(4, 7))
            eids = g.edge_ids()
            inner = rng.sample(eids, rng.randint(0, min(len(eids), 9)))
            opt, witness = self.brute(g, inner)
            assert min_inner_edges(g, inner, None) == (opt, witness)
            assert min_inner_edges(g, inner, opt) == (opt, witness)
            assert min_inner_edges(g, inner, opt - 1) is None


class TestRecursiveReference:
    """The deepening search against the one-level-per-edge recursion, on
    multigraphs above the reach of the brute-force tests."""

    @staticmethod
    def multigraph(rng, n):
        """A Hamiltonian cycle plus chords, parallel copies and loops, with
        edge ids in random order."""
        g = random_2ec_graph(rng, n, extra=rng.randint(0, 4))
        pairs = [(e.u, e.v) for e in g.edges()]
        pairs += rng.sample(pairs, rng.randint(0, 3))
        pairs += [(x, x) for x in rng.sample(range(n), rng.randint(0, 2))]
        rng.shuffle(pairs)
        return Graph.from_edge_list(n, pairs)

    @staticmethod
    def typed(g1, u, v, t):
        g = _with_uv(g1, u, v, "ABC".index(t))
        found = min_inner_2ec(
            g, g.edge_set() - g1.edge_set(), g1.edge_ids(), None,
            accept=lambda kept: classify_type(g1.spanning(kept), u, v) == t)
        return None if found is None else found[1]

    def test_same_answers(self, rng):
        for _ in range(60):
            g = self.multigraph(rng, rng.randint(8, 13))
            opt, sol = min_inner_2ec(g, frozenset(), g.edge_ids(), None)
            assert min_2ecss(g) == sol and len(sol) == opt
            eids = g.edge_ids()
            inner = rng.sample(eids, rng.randint(1, len(eids)))
            free = frozenset(eids) - set(inner)
            opt, sol = min_inner_2ec(g, free, inner, None)
            for cap in (opt, opt - 1):
                assert min_inner_edges(g, inner, cap) == \
                    min_inner_2ec(g, free, inner, cap)
            u, v = rng.sample(g.vertices, 2)
            for t in "ABC":
                assert opt_type(g, u, v, t) == self.typed(g, u, v, t)


def near_clique(rng, vs):
    """The edges of K on the vertices vs, in random order, then 0 to 4
    parallel copies of them: a keep-first search closes short kept cycles
    in it."""
    vs = list(vs)
    rng.shuffle(vs)
    clique = list(itertools.combinations(vs, 2))
    return clique + [rng.choice(clique) for _ in range(rng.randint(0, 4))]


class TestNearCliques:
    """Near-cliques, whose optimum is a Hamiltonian cycle: the exact 2EC
    search bounds a node by the components of its kept edges, each of
    which needs two more edge ends once there are two or more."""

    @staticmethod
    def doubled_star(n):
        """K_n plus a second edge from vertex 0 to every other vertex."""
        return Graph.from_edge_list(
            n, list(itertools.combinations(range(n), 2))
            + [(0, j) for j in range(1, n)])

    @pytest.mark.parametrize("n,want", [
        (9, {0, 1, 9, 16, 22, 27, 31, 34, 35}),
        (10, {0, 1, 10, 18, 25, 31, 36, 40, 43, 44}),
        (11, {0, 1, 11, 20, 28, 35, 41, 46, 50, 53, 54}),
    ])
    def test_search_size(self, monkeypatch, n, want):
        # a degree bound alone closes subtours again and again, each one
        # rejected at a leaf: 758, 5,111 and 41,494 removal tests here
        calls = []
        two_paths = oracle._two_paths

        def counting(*args):
            calls.append(1)
            return two_paths(*args)

        monkeypatch.setattr(oracle, "_two_paths", counting)
        assert min_2ecss(self.doubled_star(n)) == want
        assert len(calls) < 100, len(calls)

    def test_min_inner_edges_matches_recursion(self):
        # the recursion bounds by degrees only; some parallel copies are free
        rng = random.Random(20261024)
        for _ in range(60):
            n = rng.randint(4, 8)
            g = Graph.from_edge_list(n, near_clique(rng, range(n)))
            eids = g.edge_ids()
            copies = eids[n * (n - 1) // 2:]
            free = frozenset(rng.sample(copies, rng.randint(0, len(copies))))
            inner = [eid for eid in eids if eid not in free]
            opt, sol = min_inner_2ec(g, free, inner, None)
            assert min_inner_edges(g, inner, None) == (opt, sol)
            for cap in (opt, opt - 1):
                assert min_inner_edges(g, inner, cap) == \
                    min_inner_2ec(g, free, inner, cap)

    def test_opt_type_on_near_clique_sides(self):
        # one or two near-cliques on at most 8 vertices, the second joined
        # to the first by 1 to 3 edges; u in the first, v in either
        rng = random.Random(20261025)
        found = Counter()
        for _ in range(40):
            n = rng.randint(4, 8)
            cut = rng.choice([n, rng.randint(2, n - 2)])
            pairs = near_clique(rng, range(cut))
            if cut < n:
                pairs += near_clique(rng, range(cut, n))
                pairs += [(rng.randrange(cut), rng.randrange(cut, n))
                          for _ in range(rng.randint(1, 3))]
            g1 = Graph.from_edge_list(n, pairs)
            u, v = 0, rng.randrange(1, n)
            for t in "ABC":
                want = TestRecursiveReference.typed(g1, u, v, t)
                assert opt_type(g1, u, v, t) == want
                assert opt_typed_by_graphs(g1, u, v, t) == want
                found[t] += want is not None
        assert min(found.values()) >= 5, found


class TestMinTf2ec:
    def test_triangle_avoided(self):
        # bowtie: two triangles sharing vertex 2
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                     (4, 2)])
        h = min_tf2ec(g)
        assert is_tf2ec(g, h)
        # a 2-factor of the bowtie is two triangles (forbidden); cover needs 6
        assert len(h) == 6

    def test_matches_bruteforce(self, rng):
        for _ in range(25):
            n = rng.randint(4, 7)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, 3))
            got = min_tf2ec(g)
            want = brute_min_tf2ec(g)
            assert len(got) == len(want)
            assert sorted(got) == sorted(want)

    def test_forced_respected(self, rng):
        for _ in range(15):
            n = rng.randint(4, 7)
            g = random_2ec_graph(rng, n, extra=2)
            forced = frozenset([g.edge_ids()[0]])
            got = min_tf2ec(g, forced)
            assert forced <= got
            want = brute_min_tf2ec(g, forced)
            assert sorted(got) == sorted(want)

    def test_infeasible(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            min_tf2ec(g)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_matches_bruteforce_on_multigraphs(self, g, data):
        # loops count twice toward their vertex, as in Graph.degree
        forced = frozenset(data.draw(st.sets(st.sampled_from(g.edge_ids())))
                           if g.m else ())
        try:
            got = min_tf2ec(g, forced)
        except ValueError:
            got = None
        assert got == brute_min_tf2ec(g, forced)

    def test_kept_loop_counts_twice(self):
        # vertex 0 has only a loop: keeping it gives degree 2
        g = Graph(range(5), [Edge(0, 0, 0), Edge(1, 1, 2), Edge(2, 2, 3),
                             Edge(3, 3, 4), Edge(4, 4, 1)])
        assert min_tf2ec(g) == {0, 1, 2, 3, 4}
        # the loop alone covers vertex 0, so edge 5 stays out
        assert min_tf2ec(g.with_edges([Edge(5, 0, 1)])) == {0, 1, 2, 3, 4}

    def test_expired_deadline_raises(self):
        # prism C10 x K2: the search makes only a few dozen nodes here, so
        # the deadline has to be checked on entry as well
        rim = [(i, (i + 1) % 10) for i in range(10)]
        g = Graph.from_edge_list(20, rim + [(a + 10, b + 10) for a, b in rim]
                                 + [(i, i + 10) for i in range(10)])
        with pytest.raises(OracleTimeout):
            min_tf2ec(g, deadline=time.monotonic() - 1)

    def test_deadline_names_the_search_inside_it(self, monkeypatch):
        # past 256 nodes the search checks its deadline again, under the
        # same name as on entry
        seen = []
        monkeypatch.setattr(oracle, "_check_deadline",
                            lambda deadline, search: seen.append(search))
        g = generate("gnp_2ec", 14, 1, density=0.3)
        for search, name in ((min_2ecss, "exact 2EC search"),
                             (min_tf2ec, "triangle-free cover search")):
            seen.clear()
            search(g, deadline=math.inf)
            assert len(seen) > 1 and set(seen) == {name}


class TestMaxTf2m:
    def test_named_graphs(self):
        assert len(max_tf2matching(c_n(3))) == 2  # the triangle itself is out
        assert len(max_tf2matching(c_n(4))) == 4
        assert len(max_tf2matching(c_n(5))) == 5
        assert len(max_tf2matching(k_n(4))) == 4

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            n = rng.randint(3, 6)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, 3))
            got = max_tf2matching(g)
            want = brute_max_tf2m(g)
            assert len(got) == len(want)


class TestIdentity:
    def test_named(self):
        bowtie = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3),
                                          (3, 4), (4, 2)])
        diamond = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0),
                                           (0, 2)])
        # identity needs |V| >= 4 (C3 has no triangle-free 2-edge cover)
        for g in (c_n(4), c_n(7), k_n(4), bowtie, diamond):
            assert check_cover_matching_identity(g)

    def test_random(self, rng):
        for _ in range(15):
            g = random_2ec_graph(rng, rng.randint(4, 8), extra=rng.randint(0, 4))
            assert check_cover_matching_identity(g)


def random_2ec_multigraph(rng, n):
    """A random 2EC simple graph plus up to three loops and three parallel
    copies of its edges."""
    g = random_2ec_graph(rng, n, extra=rng.randint(0, n))
    es = g.edges()
    extra = []
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        extra.append(Edge(g.m + len(extra), v, v))
    for _ in range(rng.randint(0, 3)):
        e = rng.choice(es)
        extra.append(Edge(g.m + len(extra), e.u, e.v))
    return g.with_edges(extra)


def chain_of_blocks(rng):
    """(g, k): a 2EC multigraph on at most 12 vertices, on random vertex
    labels and edge ids, whose k blocks (2 to 4) each share one vertex with
    an earlier one. A block is 2 to 3 parallel edges, or a Hamiltonian
    cycle with up to |block| - 2 chords (more make some searches over all
    of g take seconds) and up to two parallel edges; up to two loops go
    anywhere."""
    k = rng.randint(2, 4)
    n, edges = 1, []
    for i in range(k):
        size = rng.randint(2, min(6, 13 - n - (k - 1 - i)))
        if size == 2:
            piece = [(0, 1)] * rng.randint(2, 3)
        else:
            piece = [e.ends for e in random_2ec_graph(
                rng, size, extra=rng.randint(0, size - 2)).edges()]
            piece += rng.sample(piece, rng.randint(0, 2))
        # vertex 0 of the piece is an old vertex, the others are new
        at = {0: rng.randrange(n)}
        at.update((v, n + v - 1) for v in range(1, size))
        edges += [(at[u], at[v]) for u, v in piece]
        n += size - 1
    edges += [(v, v) for v in rng.sample(range(n), rng.randint(0, 2))]
    return relabel(rng, Graph.from_edge_list(n, edges)), k


def relabel(rng, g, base=0):
    """g on random vertex labels from base up and random edge ids."""
    vs = dict(zip(g.vertices, rng.sample(range(base, base + 10 * g.n + 10),
                                         g.n)))
    ids = rng.sample(range(10 * g.m + 10), g.m)
    return Graph(vs.values(), [Edge(i, vs[e.u], vs[e.v])
                               for i, e in zip(ids, g.edges())])


def unfiltered_contractible(g, alpha):
    """The first set W, in enumeration order, whose g[W] is 2EC and whose
    minimum 2EC spanning subgraph is contractible; no filter, no pool."""
    for w in connected_subsets(g, math.floor(2 / (alpha - 1))):
        sub = g.induced(w)
        if len(w) < 3 or not is_2ec(sub):
            continue
        c = g.subgraph(min_2ecss(sub), w)
        if is_alpha_contractible(g, c, alpha):
            return c
    return None


def same_subgraph(a, b):
    if a is None or b is None:
        return a is b
    return (a.vertices, a.edge_ids()) == (b.vertices, b.edge_ids())


class TestContractibility:
    def test_c4_with_two_private_vertices(self):
        # C4 (0,1,2,3) where 1 and 3 have no other neighbors; the big cycle
        # 0-4-5-6-7-2 makes the rest 2EC. Every 2EC spanning subgraph must
        # pick up 1 and 3 with degree 2, so all 4 inner edges are needed:
        # 4 >= 4/alpha * ... contractible at alpha = 5/4.
        g = Graph.from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                     (0, 4), (4, 5), (5, 6), (6, 7), (7, 2)])
        c = g.subgraph([0, 1, 2, 3])
        assert is_alpha_contractible(g, c, Fraction(5, 4))
        found = find_contractible_subgraph(g, Fraction(5, 4))
        assert found is not None

    def test_hamiltonian_cycle_not_contractible(self):
        # On C8 any 4-subset fails 2EC induced; whole C8 > 8 vertices? no,
        # C8 induced on all 8 vertices IS the graph itself; every 2EC
        # spanning subgraph (only C8 itself) uses all 8 edges, 8 >= 8/alpha:
        # contractible by the definition. Use C9 so subsets stay < 9.
        g = c_n(9)
        assert find_contractible_subgraph(g, Fraction(5, 4)) is None

    def test_subset_budget(self, monkeypatch):
        # on C9 at kmax 8 the search makes 24 nodes: anchor 0 grows one
        # path to 8 vertices (8 nodes) and bans 1 from {0, 8} (1 node);
        # anchors 1..7 reach {v, v + 1} and stop (14), anchor 8 stops at {8}
        monkeypatch.setattr(oracle, "SUBSET_BUDGET", 24)
        assert find_contractible_subgraph(c_n(9), Fraction(5, 4)) is None
        for budget in (23, 10):
            monkeypatch.setattr(oracle, "SUBSET_BUDGET", budget)
            with pytest.raises(OracleBudgetError):
                find_contractible_subgraph(c_n(9), Fraction(5, 4))

    def test_long_cycle_does_not_recurse(self):
        # kmax is 2000, and anchor 0 grows a 2000-vertex path of which no
        # set has two ends at every vertex
        g = c_n(2100)
        start = time.monotonic()
        assert find_contractible_subgraph(g, Fraction(1001, 1000)) is None
        assert time.monotonic() - start < 1

    def test_two_ended_sets_match_filtered_scan(self, monkeypatch):
        # the sets of the filtered scan of every connected set; and per
        # anchor the same sets and the same number of nodes as the search
        # on frozensets of ids. Lone vertices, loops and parallel edges,
        # on random vertex labels, a third of them at VIRTUAL_BASE and
        # above like the dummy vertices of 2-cut sides. The search checks
        # its deadline once per node, which counts them.
        nodes = [0]
        check = oracle._check_deadline

        def counting(deadline, search):
            nodes[0] += search == "contractibility set search"
            check(deadline, search)

        monkeypatch.setattr(oracle, "_check_deadline", counting)
        rng = random.Random(20261019)
        total, kinds = 0, Counter()
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_multigraph(rng, n, rng.randint(0, 3 * n + 3))
            g = relabel(rng, g, rng.choice((0, 0, VIRTUAL_BASE)))
            kmax = rng.randint(3, 12)
            far = {v: [e.other(v) for e in g.incident(v) if not e.is_loop()]
                   for v in g.vertices}
            want = {w for w in connected_subsets(g, kmax)
                    if len(w) >= 3 and two_ends_each(w, far)}
            got = []
            for v, found in oracle._two_ended_sets(_index(g), g.vertices,
                                                   kmax, None):
                assert len(found) == len(set(found))
                got.append((v, set(found), nodes[0]))
                nodes[0] = 0
            assert got == [(v, set(found), count) for v, found, count
                           in two_ended_sets(g, kmax)]
            assert set().union(*(found for _v, found, _c in got)) == want
            total += len(want)
            links = [frozenset((e.u, e.v)) for e in g.edges()
                     if not e.is_loop()]
            kinds["virtual"] += min(g.vertices) >= VIRTUAL_BASE
            kinds["loop"] += len(links) < g.m
            kinds["parallel"] += len(set(links)) < len(links)
            kinds["lone"] += any(not g.incident(x) for x in g.vertices)
        assert total > 5000 and min(kinds.values()) >= 80, (total, kinds)

    def test_position_test_matches_induced_graph(self):
        # the search tests g[W] for 2EC on W's rows of g's index; on every
        # two-ended set of multigraphs with loops and parallel edges, that
        # is is_2ec of the built g[W]
        rng = random.Random(20261021)
        seen = Counter()
        for _ in range(150):
            n = rng.randint(3, 11)
            g = relabel(rng, random_multigraph(rng, n, rng.randint(n, 3 * n)))
            nb, vs = _index(g), g.vertices
            pos = {x: i for i, x in enumerate(vs)}
            for _v, found in oracle._two_ended_sets(nb, vs, 8, None):
                for w in found:
                    want = is_2ec(g.induced(w))
                    assert _is_2ec(_sub_index(nb, [pos[x] for x in w])) \
                        == want
                    seen[want] += 1
        assert min(seen.values()) >= 100, seen

    def test_preorder_key_gives_connected_subsets_order(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 10)
            g = random_multigraph(rng, n, rng.randint(0, 2 * n + 3))
            g = relabel(rng, g)
            nbrs = {v: g.neighbors(v) for v in g.vertices}
            sets = list(connected_subsets(g, rng.randint(1, 8)))
            for v in g.vertices:
                mine = [w for w in sets if min(w) == v]
                assert sorted(mine, key=lambda w: oracle._preorder_key(
                    nbrs, v, w)) == mine

    def test_matches_scan_of_every_connected_set(self, monkeypatch):
        # the same answer, and the same sets handed to min_2ecss in the
        # same order, as the scan through the two-ends filter
        rng = random.Random(1031)
        calls = []
        exact = oracle.min_2ecss

        def recording(sub, *args):
            calls.append(sub.vertices)
            return exact(sub, *args)

        monkeypatch.setattr(oracle, "min_2ecss", recording)
        found = 0
        for _ in range(1000):
            g = relabel(rng, random_2ec_multigraph(rng, rng.randint(3, 13)))
            for alpha in (Fraction(5, 4), Fraction(6, 5), Fraction(4, 3),
                          Fraction(3, 2)):
                calls.clear()
                got = find_contractible_subgraph(g, alpha)
                searched = list(calls)
                calls.clear()
                want = contractible_by_scan(g, alpha)
                assert same_subgraph(got, want) and searched == calls
                found += want is not None
        assert found > 1000

    def test_time_cap_reaches_search(self):
        g = generate("gnp_2ec", 17, 3, density=0.2)
        with pytest.raises(OracleTimeout):
            find_contractible_subgraph(g, Fraction(5, 4), time.monotonic())

    @given(small_graphs().filter(is_2ec))
    @settings(max_examples=150, deadline=None)
    def test_matches_unfiltered_reference(self, g):
        alpha = Fraction(5, 4)
        assert same_subgraph(find_contractible_subgraph(g, alpha),
                             unfiltered_contractible(g, alpha))

    def test_certificates_reject_only_non_contractible(self, monkeypatch):
        # n = 9..12 keeps W mostly a proper subset of V, where a certificate
        # H of g can keep few edges of g[W]
        rng = random.Random(20241017)
        alpha = Fraction(5, 4)
        rejected = []
        refute = oracle._Certificates.refute

        def recording(self, w, cap):
            out = refute(self, w, cap)
            if out:
                rejected.append(w)
            return out

        monkeypatch.setattr(oracle._Certificates, "refute", recording)
        found = checked = 0
        for _ in range(80):
            g = random_2ec_multigraph(rng, rng.randint(9, 12))
            rejected.clear()
            want = unfiltered_contractible(g, alpha)
            assert same_subgraph(find_contractible_subgraph(g, alpha), want)
            found += want is not None
            for w in set(rejected):
                sub = g.induced(w)
                if is_2ec(sub):
                    checked += 1
                    c = g.subgraph(min_2ecss(sub), w)
                    assert not is_alpha_contractible(g, c, alpha)
        assert found > 20 and checked > 500

    def test_certificates_reverse_delete(self):
        # each H of the pool is a reverse delete that tests every drop on
        # the built graph, from g in ascending and descending id order and
        # from (g - inner) | kept for a witness; a start that is not 2EC
        # keeps every edge, even where a drop would leave two paths between
        # the dropped edge's ends (two K4s joined by a bridge)
        def reverse_delete(g, keep, order):
            keep = set(keep)
            if is_2ec(g.spanning(keep)):
                for eid in order:
                    if is_2ec(g.spanning(keep - {eid})):
                        keep.discard(eid)
            return {v: [e.other(v) for e in g.incident(v)
                        if e.id in keep and not e.is_loop()]
                    for v in g.vertices}

        rng = random.Random(20261020)
        k4s = Graph.from_edge_list(8, [(a + o, b + o) for o in (0, 4) for a, b
                                       in itertools.combinations(range(4), 2)]
                                   + [(3, 4)])
        graphs = [k4s] + [random_2ec_multigraph(rng, rng.randint(3, 9))
                          for _ in range(60)] + [
            random_multigraph(rng, n, rng.randint(n, 3 * n))
            for n in (rng.randint(3, 9) for _ in range(60))]
        kinds = Counter()
        for g in graphs:
            certs = oracle._Certificates(g, None)
            ids = g.edge_ids()
            starts = [(set(ids), ids), (set(ids), ids[::-1])]
            for _ in range(3):
                inner = rng.sample(ids, rng.randint(0, len(ids)))
                kept = frozenset(rng.sample(inner, rng.randint(0, len(inner))))
                certs.add_witness(inner, kept)
                keep = set(ids) - set(inner) | kept
                starts.append((keep, [i for i in ids if i in keep]))
            assert certs.pool == [reverse_delete(g, keep, order)
                                  for keep, order in starts]
            for keep, _order in starts:
                kinds[is_2ec(g.spanning(keep))] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_nothing_to_find_below_three_vertices(self, monkeypatch):
        # the C4 above is contractible while 2/(alpha-1) >= 4; once that
        # is below 3 no set is enumerated, so a zero budget holds
        g = Graph.from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                     (0, 4), (4, 5), (5, 6), (6, 7), (7, 2)])
        assert find_contractible_subgraph(g, Fraction(3, 2)) is not None
        monkeypatch.setattr(oracle, "SUBSET_BUDGET", 0)
        for alpha in (Fraction(2), Fraction(3), Fraction(4)):
            assert find_contractible_subgraph(g, alpha) is None

    def test_monotone_in_alpha(self, rng):
        for _ in range(8):
            g = random_2ec_graph(rng, rng.randint(6, 9), extra=rng.randint(0, 3))
            for w_size in (3, 4):
                for w in itertools.combinations(g.vertices, w_size):
                    sub = g.induced(w)
                    if not (sub.m >= len(w) and is_2ec(sub)):
                        continue
                    c_edges = min_2ecss(sub)
                    c = g.subgraph(c_edges, w)
                    small = is_alpha_contractible(g, c, Fraction(6, 5))
                    big = is_alpha_contractible(g, c, Fraction(5, 4))
                    # larger alpha only makes contraction easier
                    assert big or not small


class TestTypes:
    def test_triangle_type_b(self):
        g1 = Graph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        # path 0-1-2 has super-node path C(0)-C(1)-C(2)
        h = g1.spanning([0, 1])
        assert classify_type(h, 0, 2) == "B"
        opt = opt_type(g1, 0, 2, "B")
        assert opt is not None and len(opt) == 2

    def test_two_triangles_type_c(self):
        g1 = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 0),
                                      (3, 4), (4, 5), (5, 3)])
        h = g1.spanning(range(6))
        assert classify_type(h, 0, 3) == "C"
        opt = opt_type(g1, 0, 3, "C")
        assert opt is not None and len(opt) == 6

    def test_cycle_type_a(self):
        g1 = c_n(5)
        assert classify_type(g1.spanning(range(5)), 0, 2) == "A"
        assert opt_type(g1, 0, 2, "A") == frozenset(range(5))

    def test_singletons_type_c(self):
        # u, v joined through nothing on side 1: two isolated vertices
        g1 = Graph([0, 1], [])
        assert classify_type(g1.spanning([]), 0, 1) == "C"
        assert opt_type(g1, 0, 1, "C") == frozenset()

    def test_classify_none(self):
        g1 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert classify_type(g1.spanning([0, 1, 2]), 0, 2) is None  # v inside

    def test_opt_decomposes_on_random_cuts(self, rng):
        # classify(OPT restricted to a side) is always a valid type; a
        # Hamiltonian cycle plus chords is 2-connected, as the scan needs
        from twoec.graph import two_vertex_cuts
        for _ in range(10):
            g = random_2ec_graph(rng, rng.randint(6, 8), extra=rng.randint(0, 2))
            cuts = [p for p, cls in two_vertex_cuts(g) if cls == "non_isolating"]
            if not cuts:
                continue
            u, v = cuts[0]
            opt = min_2ecss(g)
            comps = components(g.without_vertices([u, v]))
            side1 = set(comps[0]) | {u, v}
            h1 = g.induced(side1).spanning(
                [e for e in opt if g.edge(e).u in side1 and g.edge(e).v in side1])
            assert classify_type(h1, u, v) in ("A", "B", "C")

    @staticmethod
    def brute_typed(g1, u, v):
        """(size, lex)-first edge subset of g1 of each type, exhaustively."""
        found = {}
        eids = g1.edge_ids()
        for k in range(len(eids) + 1):
            for combo in itertools.combinations(eids, k):
                t = classify_type(g1.spanning(combo), u, v)
                if t is not None:
                    found.setdefault(t, frozenset(combo))
        return found

    def test_opt_type_matches_bruteforce(self, rng):
        for _ in range(150):
            n = rng.randint(2, 7)
            g1 = random_multigraph(rng, n, rng.randint(0, 10))
            u, v = rng.sample(range(n), 2)
            want = self.brute_typed(g1, u, v)
            for t in "ABC":
                assert opt_type(g1, u, v, t) == want.get(t)

    def test_opt_type_with_full_graph(self, rng):
        # side 2 holds u, v and fresh vertices; opt_type answers None unless
        # it admits a compatible type
        for _ in range(60):
            n1, n2 = rng.randint(2, 6), rng.randint(1, 3)
            g1 = random_multigraph(rng, n1, rng.randint(0, 9))
            u, v = rng.sample(range(n1), 2)
            side2 = [u, v] + list(range(n1, n1 + n2))
            extra = []
            for i in range(rng.randint(0, 6)):
                a = rng.randrange(n1, n1 + n2)
                extra.append(Edge(g1.m + i, a, rng.choice(side2)))
            # u–v edges and loops at u or v lie on side 2 too
            for _ in range(rng.randint(0, 2)):
                extra.append(Edge(g1.m + len(extra),
                                  *rng.choice([(u, v), (u, u), (v, v)])))
            g_full = g1.with_edges(extra, extra_vertices=side2[2:])
            g2 = g_full.without_vertices(set(g1.vertices) - {u, v})
            want = self.brute_typed(g1, u, v)
            for t in "ABC":
                ok = is_2ec(g2) if t == "C" else \
                    block_path_type(g2, u, v) in ("A", "B")
                expect = want.get(t) if ok else None
                assert opt_type(g1, u, v, t, g_full=g_full) == expect

    def test_complement_check_on_an_index(self):
        # g_full − (V1 ∖ {u, v}) plus k u–v edges is 2EC on the index
        # exactly when it is on the built graph; multigraphs with loops,
        # parallel edges and several u–v edges
        rng = random.Random(20261022)
        seen = Counter()
        for _ in range(300):
            g = relabel(rng, random_2ec_multigraph(rng, rng.randint(3, 10)))
            vs = g.vertices
            u, v = rng.sample(vs, 2)
            top = max(g.edge_ids()) + 1
            g = g.with_edges(
                [Edge(top + i, u, v) for i in range(rng.randint(0, 3))])
            v1 = set(rng.sample(vs, rng.randint(0, len(vs) // 2))) | {u, v}
            nb = _index(g)
            for k in (0, 1):
                want = is_2ec(_with_uv(
                    g.without_vertices(v1 - {u, v}), u, v, k))
                assert oracle._complement_2ec(g, v1, u, v, k) == want
                # on an index of g that the caller shares between checks
                assert oracle._complement_2ec(g, v1, u, v, k, nb) == want
                seen[k, want] += 1
            assert nb == _index(g)
        assert min(seen.values()) >= 50, seen

    @staticmethod
    def cut_side(rng, n):
        """A cut side g1 on n vertices and its pair {u, v}: two or three
        parts, each a lone vertex, a doubled or single edge or a 2EC graph,
        each joined to an earlier one by one to three edges; then loops,
        parallel copies and u–v edges. u lies in the first part, and v in
        the second or, one time in three, the first."""
        vs = list(range(n))
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
        parts = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        pairs = []
        for part in parts:
            if len(part) >= 3:
                h = random_2ec_graph(rng, len(part), extra=rng.randint(0, 2))
                pairs += [(part[e.u], part[e.v]) for e in h.edges()]
            elif len(part) == 2:
                pairs += [tuple(part)] * rng.randint(1, 2)
        for i, part in enumerate(parts[1:]):
            for _ in range(rng.randint(1, 3)):
                pairs.append((rng.choice(parts[rng.randrange(i + 1)]),
                              rng.choice(part)))
        for _ in range(rng.randint(0, 2)):
            x = rng.choice(vs)
            pairs.append((x, x))
        for _ in range(rng.randint(0, 2)):
            pairs.append(rng.choice(pairs))
        u, v = rng.choice(parts[0]), rng.choice(parts[1])
        if len(parts[0]) > 1 and rng.random() < 1 / 3:
            v = rng.choice([x for x in parts[0] if x != u])
        pairs += [(u, v)] * rng.randint(0, 2)
        rng.shuffle(pairs)
        return Graph.from_edge_list(n, pairs), u, v

    def test_opt_type_matches_graph_building_search(self, monkeypatch):
        # sides of 8 to 14 vertices: the leaf tests on the search's arrays
        # and the type-C refutation before it give the answers of the
        # search that builds g1.spanning(kept) at every leaf; and the
        # arrays searched for type t are those of a built g1 + k·uv, k = 0,
        # 1 or 2, position for position
        fields = ("nb", "eids", "pos", "eu", "ev", "deg")
        searched = []
        search = oracle._min_2ec

        def recording(arr, *args):
            # as the search starts: it leaves its removals in place
            searched.append(copy.deepcopy([getattr(arr, f) for f in fields]))
            return search(arr, *args)

        monkeypatch.setattr(oracle, "_min_2ec", recording)
        rng = random.Random(20261023)
        fired = found = 0
        compared = Counter()
        for _ in range(200):
            g1, u, v = self.cut_side(rng, rng.randint(8, 14))
            for k, t in enumerate("ABC"):
                want = opt_typed_by_graphs(g1, u, v, t)
                searched.clear()
                assert opt_type(g1, u, v, t) == want
                for got in searched:
                    built = _EdgeArrays(_with_uv(g1, u, v, k))
                    assert got == [getattr(built, f) for f in fields], t
                    compared[k] += 1
            refuted = oracle._no_type_c(g1, u, v)
            assert not (refuted and want is not None)
            fired += refuted
            found += want is not None
        assert fired >= 30 and found >= 30, (fired, found)
        assert min(compared[k] for k in range(3)) >= 30, compared

    @given(small_graphs().filter(lambda g: g.n >= 2), st.data())
    @settings(max_examples=300, deadline=None)
    def test_classify_matches_block_path_reference(self, h, data):
        u, v = data.draw(st.lists(st.sampled_from(h.vertices), min_size=2,
                                  max_size=2, unique=True))
        assert classify_type(h, u, v) == block_path_type(h, u, v)


def block_path_type(h, u, v):
    """classify_type from its definition: A if h is one 2EC piece; B if the
    bridge tree over h's 2EC blocks is a path with u and v in its two end
    super-nodes; C if h is two 2EC components, one holding u, one v."""
    comps = components(h)
    if len(comps) == 2:
        split = any(u in c and v not in c for c in comps)
        return "C" if split and all(is_2ec(h.induced(c)) for c in comps) \
            else None
    if len(comps) != 1:
        return None
    dec = two_ec_blocks(h)
    if not dec.bridge_ids:
        return "A"
    node = {x: i for i, (vs, _es) in enumerate(dec.blocks) for x in vs}
    node.update({x: ("lonely", x) for x in dec.lonely})
    deg = Counter()
    for b in dec.bridge_ids:
        e = h.edge(b)
        deg[node[e.u]] += 1
        deg[node[e.v]] += 1
    # a tree with no degree above 2 is a path; its ends have degree 1
    ends = {x for x, d in deg.items() if d == 1}
    if max(deg.values()) > 2 or {node[u], node[v]} != ends:
        return None
    return "B"
