"""End-to-end acceptance suite.

Nine checks: exactness at the brute-force base case, the 5/4 ratio
against the exact oracle (and past its reach against a lower bound), the
cover/matching duality identity, per-move cost audits over a large
corpus, canonical-cover properties, the structured-instance contract at
dispatch, the search-guarantee monitors, the DFS baseline comparison,
and byte-identical determinism.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from twoec.bridge_cover import cover_all
from twoec.cover import (canonical_violations, canonicalize, cover_cost,
                         initial_cover, is_tf2ec, _drop_spare_edge,
                         _exchange_small_component, _rewire_leaf_block)
from twoec.errors import OracleBudgetError, OracleTimeout
from twoec.gluing import build_context, glue_all, local_3_matching
from twoec.graph import Edge, Graph, bridges, components, is_2ec
from twoec.harness import (baseline_dfs2, generate, report_json, solve,
                           structured_solver)
from twoec.oracle import min_2ecss, min_tf2ec
from twoec.reduction import reduce

from conftest import random_2ec_graph
from reference import check_cover_matching_identity, is_structured


def _cyc(n):
    return Graph(range(n), [Edge(i, i, (i + 1) % n) for i in range(n)])


def _mindeg2_connected(rng, n):
    from twoec.graph import is_connected
    while True:
        p = rng.uniform(0.3, 0.6)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = Graph.from_edge_list(n, pairs)
        if g.n == n and is_connected(g) and \
                all(len(g.incident(v)) >= 2 for v in g.vertices):
            return g


# -- per-dispatch audit used by criteria 4-7 -------------------------------


class DispatchAudit:
    """Replays the structured pipeline stepwise and checks every move."""

    def __init__(self):
        self.dispatched = 0
        self.glue_rules = []

    def __call__(self, g: Graph):
        self.dispatched += 1
        # criterion 6: the structured-instance contract holds at dispatch
        verdict = is_structured(g)
        assert verdict, f"dispatched instance not structured: {verdict.reason}"

        h = initial_cover(g, frozenset())
        assert is_tf2ec(g, h)
        # criterion 4: canonicalization never raises the cost, move by move
        cur = h
        while True:
            nxt = (_drop_spare_edge(g, cur) or _rewire_leaf_block(g, cur)
                   or _exchange_small_component(g, cur))
            if nxt is None:
                break
            assert cover_cost(g, nxt) <= cover_cost(g, cur)
            cur = nxt
        # criterion 5: canonical properties and the 5/4 cost bound
        assert canonical_violations(g, cur) == []
        assert cover_cost(g, cur) <= Fraction(5, 4) * len(h)

        cov = canonicalize(g, h)
        moves = []
        cov2 = cover_all(g, cov, moves=moves)
        # criterion 4: each bridge-covering move strictly reduces the
        # bridge count and never raises the cost
        s = cov
        for mv in moves:
            s2 = (s | mv.added) - mv.removed
            assert cover_cost(g, s2) <= cover_cost(g, s)
            assert mv.cost_delta >= 0
            assert len(bridges(g.spanning(s2))) < len(bridges(g.spanning(s)))
            s = s2
        assert s == cov2

        final, gmoves = glue_all(g, cov2)
        # criterion 4: each glue move merges components and releases cost
        s = cov2
        for mv in gmoves:
            s2 = (s | mv.added) - mv.removed
            assert mv.cost_delta >= 0
            assert cover_cost(g, s2) <= cover_cost(g, s)
            assert len(components(g.spanning(s2))) < \
                len(components(g.spanning(s)))
            # criterion 5: canonical properties survive every glue move
            assert canonical_violations(g, s2) == []
            self.glue_rules.append(mv.rule)
            s = s2
        assert s == final

        # criterion 7: the local 3-matching guarantee, probed directly
        if len(components(g.spanning(cov2))) > 1:
            ctx = build_context(g, cov2)
            small = [r for r in ctx.block if ctx.comp_size(r) <= 7]
            for r in small:
                assert len(local_3_matching(ctx, ctx.block, {r})) >= 3

        return structured_solver(g)


def _audited_solve(g):
    audit = DispatchAudit()
    sol, _ = reduce(g, alg=audit)
    sub = g.spanning(sol)
    assert sub.n == g.n and is_2ec(sub)
    return sol, audit


# -- criterion 1: exactness at the base case -------------------------------


class TestExactBaseCase:
    def test_300_random_small_graphs(self):
        rng = random.Random(101)
        for i in range(300):
            n = rng.randint(4, 16)
            g = random_2ec_graph(rng, n)
            sol, report = solve(g)
            opt = min_2ecss(g)
            assert report["size"] == len(opt), \
                f"instance {i}: got {report['size']}, opt {len(opt)}"


# -- criterion 2: ratio bound on oracle-certified instances ----------------


class TestRatioBound:
    def test_100_certified_instances(self, capsys):
        rng = random.Random(202)
        certified = 0
        excluded = 0
        results = []
        i = 0
        while certified < 100:
            i += 1
            n = rng.randint(17, 22)
            g = random_2ec_graph(rng, n, extra=rng.randint(0, n))
            assert g.m <= 2 * n
            try:
                # each optimum gets its own 120 s
                opt = min_2ecss(g, time.monotonic() + 120.0, vertex_cap=22)
            except (OracleBudgetError, OracleTimeout):
                excluded += 1
                continue
            sol, report = solve(g)
            size = report["size"]
            assert size <= (5 * len(opt)) // 4, \
                f"instance {i}: size {size} > floor(5*{len(opt)}/4)"
            results.append((g, size, len(opt)))
            certified += 1
        with capsys.disabled():
            print(f"\n[ratio] certified={certified} oracle_excluded={excluded}")
        TestRatioBound.corpus = results

    def test_baseline_comparison_on_certified_corpus(self):
        # criterion 8: both algorithms inside their theoretical bounds,
        # and the baseline is usually no better (soft, reported)
        corpus = getattr(TestRatioBound, "corpus", None)
        if corpus is None:
            pytest.skip("certified corpus not built in this run")
        wins = 0
        for g, size, opt in corpus:
            base = baseline_dfs2(g)
            assert is_2ec(g.spanning(base))
            assert Fraction(len(base), opt) <= 2
            assert Fraction(size, opt) <= Fraction(5, 4)
            if len(base) >= size:
                wins += 1
        frac = wins / len(corpus)
        print(f"[baseline] paper54 <= dfs2approx on {frac:.0%} of corpus")


class TestScaleAudit:
    def test_lower_bound_certifies_every_instance(self):
        # past the exact oracle's reach the ratio is certified by a lower
        # bound: OPT >= n, and for n >= 4 OPT >= |min_tf2ec(g)|, since a
        # 2EC spanning subgraph is then a triangle-free 2-edge cover; an
        # instance neither bound certifies fails, it is never dropped
        rows = [(family, 80, 0.3) for family in (
            "hamiltonian_plus_chords", "cycle_of_cliques",
            "structured_stress")]
        rows += [("gnp_2ec", 20, 0.3), ("gnp_2ec", 22, 0.25)]
        for family, n, density in rows:
            for seed in range(3):
                g = generate(family, n, seed, density=density)
                sol, report = solve(g)
                assert report["verdict"] == "OK" and is_2ec(g.spanning(sol))
                bound = max(g.n, len(min_tf2ec(g)))
                assert 4 * len(sol) <= 5 * bound, \
                    (family, n, seed, len(sol), bound)


# -- criterion 3: cover/matching duality identity --------------------------


class TestCoverMatchingIdentity:
    def _bowtie(self):
        return Graph.from_edge_list(
            5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])

    def _diamond(self):
        return Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3),
                                        (1, 3)])

    def _k4(self):
        return Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2),
                                        (1, 3), (2, 3)])

    def test_named_graphs(self):
        # k >= 4: a triangle alone has no triangle-free 2-edge cover
        named = [_cyc(k) for k in range(4, 9)]
        named += [self._k4(), self._bowtie(), self._diamond()]
        for g in named:
            assert check_cover_matching_identity(g)

    def test_200_random_graphs(self):
        rng = random.Random(303)
        for _ in range(200):
            g = _mindeg2_connected(rng, rng.randint(4, 10))
            assert check_cover_matching_identity(g)


# -- criteria 4-7: audited corpus run --------------------------------------


def _corpus_500():
    """500 deterministic instances across the generator families."""
    specs = []
    for i in range(500):
        fam = ("structured_stress", "cycle_of_cliques",
               "hamiltonian_plus_chords", "dumbbell", "gnp_2ec")[i % 5]
        if fam == "structured_stress":
            n = 20 + (i % 41)
        elif fam == "cycle_of_cliques":
            n = 16 + (i % 45)
        elif fam == "hamiltonian_plus_chords":
            n = 17 + (i % 44)
        elif fam == "dumbbell":
            n = 10 + (i % 9)
        else:
            # up to 16 vertices reduce() solves G(n,p) by the exact search
            # at once; above that the contractible-subgraph search runs on
            # every dense instance and its cost grows fast with n, so large
            # instances come from the sparse families and the ratio corpus
            n = 8 + (i % 7)
        specs.append((fam, n, i))
    return specs


class TestAuditedCorpus:
    def test_500_instances_move_audit(self, capsys):
        dispatched = 0
        rules = []
        for fam, n, seed in _corpus_500():
            g = generate(fam, n, seed)
            sol, audit = _audited_solve(g)
            dispatched += audit.dispatched
            rules += audit.glue_rules
        with capsys.disabled():
            print(f"\n[audit] 500 instances, {dispatched} structured "
                  f"dispatches, glue rules: {sorted(set(rules))}")


# -- criterion 7: direct monitors (beyond the corpus's implicit ones) ------


class TestLemmaMonitors:
    def test_sparse_dispatch_instances(self):
        # sparse random instances dispatch more often than the corpus
        # families; every dispatch replays the full audit, and any
        # impossible branch raises with a serialized counterexample
        rng = random.Random(404)
        dispatched = 0
        tries = 0
        while dispatched < 5 and tries < 60:
            tries += 1
            n = rng.randint(17, 22)
            g = random_2ec_graph(rng, n, extra=rng.randint(2, n // 2))
            sol, audit = _audited_solve(g)
            dispatched += audit.dispatched
        assert dispatched >= 1, "no instance reached the structured solver"


# -- criterion 9: determinism ----------------------------------------------


class TestDeterminism:
    def test_20_byte_identical_reports(self):
        rng = random.Random(505)
        g = random_2ec_graph(rng, 18, extra=6)
        reports = set()
        for _ in range(20):
            _, report = solve(g, seed=42, want_trace=True)
            reports.add(report_json(report))
        assert len(reports) == 1
