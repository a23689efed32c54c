import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings

from twoec.graph import (
    Edge, Graph, biconnected_blocks, bridges, components,
    connected_subsets, cut_vertices, find_cross_matching,
    find_irrelevant_edge, hamiltonian_path, is_2ec, is_2vc, is_connected,
    path_avoiding, two_vertex_cuts, _blocks, _index, _is_2ec, _two_paths,
)
import twoec.graph as graph_module
from twoec.cover import pieces
from twoec.gluing import component_graph

import reference
from conftest import (random_2ec_graph, random_covers, random_multigraph,
                      small_graphs)


def c_n(n):
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def to_nx(g):
    G = nx.MultiGraph()
    G.add_nodes_from(g.vertices)
    for e in g.edges():
        G.add_edge(e.u, e.v, key=e.id)
    return G


class TestBasics:
    def test_edge_ids_survive_subgraph(self):
        g = c_n(5)
        sub = g.subgraph([1, 2])
        assert sub.edge_ids() == [1, 2]
        assert sub.edge(2).ends == (2, 3)

    def test_contract_keeps_parallels_drops_loops(self):
        g = c_n(4)
        h, vmap = g.contract({0, 1})
        assert vmap[1] == 0
        assert h.n == 3
        # edge 0 (0-1) became a loop and is gone
        assert not h.has_edge(0)
        assert sorted(h.edge_ids()) == [1, 2, 3]

    def test_degree_counts_loops_twice(self):
        g = Graph([0, 1], [Edge(0, 0, 0), Edge(1, 0, 1)])
        assert g.degree(0) == 3

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [Edge(0, 0, 1), Edge(0, 1, 0)])


class TestConnectivity:
    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_bridges_match_networkx(self, g):
        got = bridges(g)
        G = to_nx(g)
        want = set()
        for e in g.edges():
            if e.is_loop():
                continue
            H = G.copy()
            H.remove_edge(e.u, e.v, key=e.id)
            if nx.number_connected_components(H) > nx.number_connected_components(G):
                want.add(e.id)
        assert got == want

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_cut_vertices_match_bruteforce(self, g):
        got = cut_vertices(g)
        want = set()
        base = len(components(g))
        for v in g.vertices:
            if not g.incident(v):
                continue  # isolated vertices are never cut vertices
            h = g.without_vertices([v])
            if h.n and len(components(h)) > base:
                want.add(v)
        assert got == want

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_block_edges(self, g):
        # vertex sets are checked against networkx in test_gluing; here every
        # non-loop edge lies in exactly one block, whose vertices it spans
        blocks = biconnected_blocks(g)
        placed = [eid for _vs, es in blocks for eid in es]
        assert sorted(placed) == [e.id for e in g.edges() if not e.is_loop()]
        for vs, es in blocks:
            assert vs == {x for eid in es for x in g.edge(eid).ends}

    def test_is_2ec_conventions(self):
        assert is_2ec(Graph([7], []))
        assert is_2ec(c_n(3))
        assert not is_2ec(Graph.from_edge_list(2, [(0, 1)]))
        # parallel pair is 2EC
        assert is_2ec(Graph([0, 1], [Edge(0, 0, 1), Edge(1, 0, 1)]))

    def test_two_ec_blocks_dumbbell(self):
        # two triangles joined by one bridge
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 3), (0, 3)])
        (p,) = pieces(g, g.edge_set())
        assert len(p.blocks) == 2
        assert p.bridges == frozenset({6})
        assert p.lonely == frozenset()

    def test_blocks_partition_edges(self, rng):
        for _ in range(25):
            n = rng.randint(4, 12)
            g = random_2ec_graph(rng, n)
            drop = rng.sample(g.edge_ids(), rng.randint(0, g.m // 3))
            h = g.without_edges(drop)
            for p in pieces(g, h.edge_set()):
                covered = set(p.bridges)
                for _, es in p.blocks:
                    assert not (covered & es)
                    covered |= es
                    assert is_2ec(h.subgraph(es))
                assert covered == p.edges


class TestCuts:
    def test_two_vertex_cuts_classification(self):
        # C4 plus vertex 4 joined to 0 and 2: removing {0,2} leaves three
        # singletons (non-isolating); removing {0,1}? leaves 2-3-4? no, 4-2-3
        # stays connected, not a cut.
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2),
                                     (0, 4), (2, 4)])
        cuts = dict(two_vertex_cuts(g))
        assert cuts[(0, 2)] == "non_isolating"
        # plain C4: opposite pairs are isolating cuts
        assert dict(two_vertex_cuts(c_n(4)))[(0, 2)] == "isolating"

    @staticmethod
    def mixed_inputs(rng):
        # simple 2EC graphs, random multigraphs, cycles, and a diamond with
        # a pendant path, an isolated vertex and a looped one
        graphs = [random_2ec_graph(rng, rng.randint(4, 10),
                                   extra=rng.randint(0, 3)) for _ in range(30)]
        graphs += [random_multigraph(rng, rng.randint(3, 9), rng.randint(2, 14))
                   for _ in range(60)]
        graphs += [c_n(k) for k in range(3, 9)]
        graphs.append(Graph(range(8), [
            Edge(i, u, v) for i, (u, v) in enumerate(
                [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 5),
                 (7, 7)])]))
        return graphs

    @staticmethod
    def cut_inputs():
        """Seeded 2-connected multigraphs that reach every case of the
        scan: random multigraphs (loops and parallel edges included) with
        each edge subdivided 0-3 times, theta graphs and other parallel
        chains between two branch vertices, C3-C12, and K4s in a ring
        joined by chains, whose ring chains share one cycle-space label.
        Vertex and edge ids are shuffled."""
        rng = random.Random(20261021)

        def build(pairs, splits):
            # subdivide pair i splits[i] times, then relabel at random
            n = 1 + max(max(p) for p in pairs)
            out = []
            for (a, b), k in zip(pairs, splits):
                path = [a] + list(range(n, n + k)) + [b]
                n += k
                out += zip(path, path[1:])
            vs = rng.sample(range(3 * n), n)
            ids = rng.sample(range(4 * len(out) + 1), len(out))
            return Graph(vs, [Edge(i, vs[a], vs[b])
                              for i, (a, b) in zip(ids, out)])

        def splits(k):
            return [rng.randint(0, 3) for _ in range(k)]

        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        out = [c_n(k) for k in range(3, 13)]
        for _ in range(300):
            # a Hamiltonian cycle (2 parallel edges at n = 2) keeps most of
            # them 2-connected
            n = rng.randint(2, 7)
            pairs = [(i, (i + 1) % n) for i in range(n)]
            pairs += [(rng.randrange(n), rng.randrange(n))
                      for _ in range(rng.randint(0, n + 2))]
            out.append(build(pairs, splits(len(pairs))))
        for _ in range(40):
            # a theta graph, or parallel chains beside a K4 on 0 and 1
            chains = [(0, 1)] * rng.randint(2, 5)
            extra = k4 if rng.random() < 0.5 else []
            out.append(build(chains + extra,
                             splits(len(chains)) + [0] * len(extra)))
        for _ in range(40):
            # 2-4 K4s in a ring, each joined to the next by one chain
            r = rng.randint(2, 4)
            ring = [(4 * i + 3, (4 * i + 4) % (4 * r)) for i in range(r)]
            blocks = [(4 * i + a, 4 * i + b) for i in range(r) for a, b in k4]
            out.append(build(ring + blocks,
                             [rng.randint(1, 3) for _ in ring]
                             + [0] * len(blocks)))
        return [g for g in out if is_2vc(g)]

    @staticmethod
    def case_of(g, a, b):
        """Which way the scan reads pair {a, b}: the chains are the
        components of g on its chain vertices (two non-loop edge ends,
        to distinct neighbours), their ends the branch vertices next to
        them."""
        far = {v: [e.other(v) for e in g.incident(v) if not e.is_loop()]
               for v in g.vertices}
        inner = {v for v, f in far.items() if len(f) == 2 and f[0] != f[1]}
        if len(inner) == g.n:
            return "cycle"
        chain = {x: i for i, c in enumerate(components(g.induced(inner)))
                 for x in c}
        if a not in inner and b not in inner:
            return "branch pair"
        if a in inner and b in inner:
            return "one chain" if chain[a] == chain[b] else "two chains"
        u, x = (a, b) if b in inner else (b, a)
        ends = {w for y in inner if chain[y] == chain[x] for w in far[y]}
        return "chain end" if u in ends else "bridge of B - u"

    def test_two_vertex_cuts_bruteforce(self, rng):
        def brute(g):
            out = []
            for u, v in itertools.combinations(g.vertices, 2):
                comps = components(g.without_vertices([u, v]))
                if len(comps) >= 2:
                    isolating = len(comps) == 2 and min(map(len, comps)) == 1
                    out.append(((u, v),
                                "isolating" if isolating else "non_isolating"))
            return out

        graphs = [g for g in self.mixed_inputs(rng) if is_2vc(g)]
        graphs += self.cut_inputs()
        assert len(graphs) >= 300
        cases, kinds = Counter(), Counter()
        for g in graphs:
            cuts = two_vertex_cuts(g)
            assert cuts == brute(g) == reference.two_vertex_cuts(g)
            kinds.update(kind for _pair, kind in cuts)
            for (a, b), kind in cuts:
                case = self.case_of(g, a, b)
                cases[case] += 1
                if case == "branch pair" and len(components(
                        g.without_vertices([a, b]))) > 2:
                    cases["branch pair, k > 2"] += 1
        assert len(cases) == 7 and min(cases.values()) >= 10, cases
        assert min(kinds.values()) >= 100, kinds

    def test_two_vertex_cuts_needs_2_connected(self, rng):
        # fewer than 3 vertices, more than one component, a cut vertex;
        # the inputs of test_two_vertex_cuts_bruteforce and of
        # TestBlockReference that are not 2-connected
        bad = [g for g in self.mixed_inputs(rng) if not is_2vc(g)]
        bad += [Graph([], []), Graph([0], []), c_n(2),
               Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 0), (3, 3)]),
               Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4),
                                        (4, 5), (5, 3)]),
               Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3),
                                        (3, 4), (4, 2)]),
               Graph.from_edge_list(3, [(0, 1), (1, 2)])]
        bad += [g for g in TestBlockReference.graphs() if not is_2vc(g)]
        assert len(bad) >= 200
        for g in bad:
            with pytest.raises(ValueError):
                two_vertex_cuts(g)

    def test_one_block_dfs_per_branch_vertex(self, monkeypatch):
        # C200 plus three chords with six distinct ends: the scan runs
        # one block DFS to check g and one per branch vertex, not one per
        # vertex
        n = 200
        g = Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]
                                 + [(0, 100), (30, 170), (60, 140)])
        runs = []

        def counted(*args):
            runs.append(args)
            return _blocks(*args)

        monkeypatch.setattr(graph_module, "_blocks", counted)
        cuts = two_vertex_cuts(g)
        monkeypatch.undo()
        assert len(runs) <= 6 + 1
        assert cuts == reference.two_vertex_cuts(g)

    def test_irrelevant_edge(self):
        # diamond: K4 minus one edge; edge 0-2 connects the two cut vertices
        g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert find_irrelevant_edge(g, two_vertex_cuts(g)) == [4]

    def test_irrelevant_edge_cycle(self):
        # cycles have 2-cuts but no edge between the cut pair
        for g in (c_n(4), c_n(5)):
            assert find_irrelevant_edge(g, two_vertex_cuts(g)) is None


class TestBlockReference:
    """The block DFS on positions, and what is read off it, against the
    edge-stack DFS on ids and the cut scan on a built g - u per u
    (`reference.py`), list-equal with the order included."""

    @staticmethod
    def graphs():
        # seeded multigraphs with arbitrary vertex ids and edge ids in random
        # order, plus the cycles C3-C8
        rng = random.Random(20261019)
        out = [c_n(k) for k in range(3, 9)]
        for _ in range(300):
            n = rng.randint(1, 12)
            vs = rng.sample(range(3 * n), n)
            pairs = [(rng.choice(vs), rng.choice(vs))
                     for _ in range(rng.randint(0, 2 * n + 2))]
            ids = rng.sample(range(4 * len(pairs) + 1), len(pairs))
            out.append(Graph(vs, [Edge(i, a, b)
                                  for i, (a, b) in zip(ids, pairs)]))
        kinds = Counter()
        for g in out:
            ends = [e.ends for e in g.edges()]
            kinds["loop"] += any(a == b for a, b in ends)
            kinds["parallel"] += len(set(ends)) < len(ends)
            kinds["isolated"] += any(not g.incident(v) for v in g.vertices)
            kinds["disconnected"] += not is_connected(g)
            kinds["2ec"] += g.n > 1 and is_2ec(g)
        assert len(kinds) == 5 and min(kinds.values()) >= 30, kinds
        return out

    def test_biconnected_blocks(self):
        for g in self.graphs():
            assert biconnected_blocks(g) == reference.biconnected_blocks(g)

    def test_two_vertex_cuts(self):
        # the graphs that are not 2-connected are refused
        # (TestCuts::test_two_vertex_cuts_needs_2_connected)
        graphs = [g for g in self.graphs() if is_2vc(g)]
        assert len(graphs) >= 30
        for g in graphs:
            assert two_vertex_cuts(g) == reference.two_vertex_cuts(g)

    def test_two_ec_blocks(self):
        # `cover.pieces` splits a cover into its components, each with the
        # 2EC blocks, bridges and lone vertices of its induced subgraph
        for g, h in random_covers(20261019):
            sub = g.spanning(h)
            ps = pieces(g, h)
            assert [p.vertices for p in ps] == [tuple(c)
                                                for c in components(sub)]
            for p in ps:
                cs = sub.induced(p.vertices)
                dec = reference.two_ec_blocks(cs)
                assert p.edges == cs.edge_set()
                assert (p.bridges, list(p.blocks), p.lonely) == \
                    (dec.bridge_ids, dec.blocks, dec.lonely)

    def test_is_2ec(self):
        for g in self.graphs():
            assert is_2ec(g) == (g.n <= 1 or (is_connected(g)
                                              and not bridges(g)))

    def test_masked_is_2ec(self):
        # `_is_2ec` over a present mask against the 2EC test of the kept
        # edges as a built graph and the reference bridge test, on n = 0
        # too and on masks that disconnect g
        rng = random.Random(7)
        kinds = Counter()
        for g in [Graph([], [])] + self.graphs():
            nb, ids = _index(g), g.edge_ids()
            for _ in range(4):
                keep = rng.random()
                present = [rng.random() < keep for _ in ids]
                kept = g.spanning(i for i, p in zip(ids, present) if p)
                arr = reference.BridgeArrays(g)
                for j, p in enumerate(present):
                    if not p:
                        arr.remove(j)
                want = is_2ec(kept)
                assert _is_2ec(nb, present) == want == arr.is_2ec_now()
                kinds[want] += 1
                kinds["disconnected"] += not is_connected(kept)
        assert min(kinds.values()) >= 100, kinds

    def test_two_paths_after_one_removal(self):
        # a 2EC mask less one present edge ab is 2EC exactly when two
        # edge-disjoint a-b paths remain: on seeded multigraphs (a random
        # cycle through every vertex plus random edges, loops and parallel
        # edges among them) and masks thinned while they stay 2EC
        rng = random.Random(20261020)
        kinds = Counter()
        for _ in range(300):
            n = rng.randint(1, 10)
            vs = rng.sample(range(3 * n), n)
            pairs = list(zip(vs, vs[1:] + vs[:1])) if n > 1 else []
            pairs += [(rng.choice(vs), rng.choice(vs))
                      for _ in range(rng.randint(0, 2 * n))]
            ids = rng.sample(range(4 * len(pairs) + 1), len(pairs))
            g = Graph(vs, [Edge(i, a, b) for i, (a, b) in zip(ids, pairs)])
            nb, pos = _index(g), {v: x for x, v in enumerate(g.vertices)}
            ends = [(pos[e.u], pos[e.v]) for e in g.edges()]
            present = [True] * g.m
            assert _is_2ec(nb, present)
            for j in rng.sample(range(g.m), g.m):
                present[j] = rng.random() < 0.5
                if not _is_2ec(nb, present):
                    present[j] = True
            for j in range(g.m):
                if present[j]:
                    present[j] = False
                    want = _is_2ec(nb, present)
                    assert _two_paths(nb, present, *ends[j]) == want
                    present[j] = True
                    kinds[want] += 1
                    kinds["loop"] += ends[j][0] == ends[j][1]
        assert min(kinds.values()) >= 100, kinds

    def test_blocks_closing_order(self):
        # the blocks of g - skip, in the order the DFS closes them
        for g in self.graphs():
            nb, vs = _index(g), g.vertices
            for skip in range(-1, g.n):
                rest = g.without_vertices([vs[skip]] if skip >= 0 else [])
                want = [bvs for bvs, _es in reference.biconnected_blocks(rest)]
                assert [frozenset(vs[x] for x in b)
                        for b in _blocks(nb, skip)] == want


class TestConnectedSubsets:
    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_multigraph(rng, n, rng.randint(0, 12))
            k = rng.randint(1, 6)
            got = list(connected_subsets(g, k))
            assert len(got) == len(set(got))
            want = {frozenset(c) for r in range(1, k + 1)
                    for c in itertools.combinations(g.vertices, r)
                    if is_connected(g.induced(c))}
            assert set(got) == want

    def test_order(self):
        # grouped by ascending minimum vertex; each set before its extensions
        got = list(connected_subsets(c_n(4), 3))
        assert got == [frozenset(s) for s in (
            {0}, {0, 1}, {0, 1, 3}, {0, 1, 2}, {0, 3}, {0, 2, 3},
            {1}, {1, 2}, {1, 2, 3}, {2}, {2, 3}, {3})]

    def test_matches_recursive_reference_order(self):
        rng = random.Random(20241007)
        for _ in range(320):
            n = rng.randint(1, 11)
            g = random_multigraph(rng, n, rng.randint(0, 2 * n + 4))
            k = rng.randint(0, 8)
            assert list(connected_subsets(g, k)) == \
                list(recursive_connected_subsets(g, k))

    def test_nothing_below_one_vertex(self):
        # kmax = 0 once meant no size limit: all 21 connected sets of C5
        assert list(connected_subsets(c_n(5), 0)) == []
        assert list(connected_subsets(c_n(5), -1)) == []
        assert len(list(connected_subsets(c_n(5), 1))) == 5


def recursive_connected_subsets(g, kmax):
    """The recursive preorder enumerator that `connected_subsets` replaced,
    kept as the reference for its order."""
    if kmax < 1:
        return
    nbrs = {v: g.neighbors(v) for v in g.vertices}

    def grow(v, current, ext, banned):
        yield frozenset(current)
        if len(current) == kmax:
            return
        local_ban = set(banned)
        for i, u in enumerate(ext):
            new_ext = ext[i + 1:]
            seen = set(new_ext) | current | local_ban | {u}
            for x in nbrs[u]:
                if x > v and x not in seen:
                    new_ext.append(x)
                    seen.add(x)
            yield from grow(v, current | {u}, new_ext, local_ban)
            local_ban.add(u)

    for v in g.vertices:
        yield from grow(v, {v}, [x for x in nbrs[v] if x > v], set())


class TestComponentGraph:
    def test_component_graph_keeps_parallels(self):
        # two triangles + two cross edges
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 3), (0, 3), (1, 4)])
        cg = component_graph(g, frozenset([0, 1, 2, 3, 4, 5]))
        assert set(cg.graph.vertices) == {0, 3}
        assert cg.graph.m == 2
        assert cg.node_of(4) == 3

    def test_loops_dropped(self):
        g = c_n(4)
        cg = component_graph(g, frozenset([0, 1, 2, 3]))
        assert cg.graph.m == 0 and cg.graph.n == 1

    def test_matches_reference(self):
        # built from `cover.pieces` against a components search of its own
        for g, h in random_covers(20261020):
            cg, want = component_graph(g, h), reference.component_graph(g, h)
            assert cg.node_vertices == want.node_vertices
            assert list(cg.vertex_node.items()) == \
                list(want.vertex_node.items())
            assert cg.graph.vertices == want.graph.vertices
            assert cg.graph.edges() == want.graph.edges()


class TestHamiltonianPath:
    def test_agrees_with_permutation_search(self, rng):
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, 4))
            w = list(range(n))
            nbr = {v: set(g.neighbors(v)) for v in w}
            for u, v in itertools.combinations(w, 2):
                got = hamiltonian_path(g, w, u, v)
                want = any(
                    all(p[i + 1] in nbr[p[i]] for i in range(n - 1))
                    for p in itertools.permutations(w)
                    if p[0] == u and p[-1] == v
                )
                assert (got is not None) == want
                if got:
                    assert got[0] == u and got[-1] == v
                    assert sorted(got) == sorted(w)
                    assert all(got[i + 1] in nbr[got[i]] for i in range(n - 1))

    def test_trivial_cases(self):
        g = c_n(4)
        assert hamiltonian_path(g, [2], 2, 2) == [2]
        assert hamiltonian_path(g, [0, 1], 0, 0) is None

    def test_matches_popcount_dp(self):
        # the same path, or None, as the DP over masks sorted by popcount,
        # for every ordered pair of a vertex set w (and an end outside w)
        # on 300 multigraphs with loops, parallel edges and arbitrary ids
        rng = random.Random(20261021)
        calls = found = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            vs = rng.sample(range(3 * n), n)
            m = rng.randint(0, 3 * n)
            g = Graph(vs, [Edge(i, rng.choice(vs), rng.choice(vs))
                           for i in rng.sample(range(4 * m + 1), m)])
            ws = [vs[:8]] + [rng.sample(vs, rng.randint(1, min(n, 8)))
                             for _ in range(2)]
            for w in ws:
                for u in w + [3 * n]:
                    for v in w:
                        got = hamiltonian_path(g, w, u, v)
                        assert got == reference.hamiltonian_path_by_popcount(
                            g, w, u, v)
                        calls += 1
                        found += got is not None
        assert calls > 15000 and found > 2000, (calls, found)


class TestMatchingAndPaths:
    def test_find_cross_matching_bruteforce(self, rng):
        for _ in range(30):
            n = rng.randint(4, 10)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, 6))
            v1 = [v for v in range(n) if v % 2 == 0][:5]
            v2 = [v for v in range(n) if v % 2 == 1][:5]
            cross = [e for e in g.edges()
                     if {e.u, e.v} <= set(v1) | set(v2)
                     and (e.u in v1) != (e.v in v1)]
            best = 0
            for k in range(len(cross), 0, -1):
                for combo in itertools.combinations(cross, k):
                    vs = [x for e in combo for x in (e.u, e.v)]
                    if len(set(vs)) == 2 * k:
                        best = k
                        break
                if best:
                    break
            for k in range(1, best + 2):
                got = find_cross_matching(g, v1, v2, k)
                assert (got is not None) == (best >= k)
                if got:
                    vs = [x for e in got for x in (e.u, e.v)]
                    assert len(set(vs)) == 2 * len(got)

    def test_path_avoiding(self):
        g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert path_avoiding(g, [0], [2], [1]) is not None
        p = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        assert path_avoiding(p, [0], [2], [1]) is None
        assert path_avoiding(p, [0], [0], []) == []
