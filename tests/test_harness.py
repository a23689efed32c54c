import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from twoec import bridge_cover, cli, gluing, harness, oracle
from twoec.cli import main
from twoec.errors import (InfeasibleError, InternalContradiction,
                          OracleTimeout, ParseError)
from twoec.graph import Edge, Graph, is_2ec
from twoec.harness import (FAMILIES, baseline_dfs2, format_instance,
                           gen_cycle_of_cliques, gen_dumbbell, gen_gnp_2ec,
                           gen_structured_stress, generate, instance_hash,
                           parse_instance, report_json, solve,
                           structured_solver, verify)
from twoec.oracle import min_2ecss

import reference
from conftest import random_2ec_graph


def cyc(n):
    return Graph(range(n), [Edge(i, i, (i + 1) % n) for i in range(n)])


class TestInstanceFormat:
    def test_roundtrip(self, rng):
        g = random_2ec_graph(rng, 10)
        h = parse_instance(format_instance(g, ["a comment"]))
        assert h.n == g.n
        assert sorted((min(e.u, e.v), max(e.u, e.v)) for e in h.edges()) == \
            sorted((min(e.u, e.v), max(e.u, e.v)) for e in g.edges())

    @pytest.mark.parametrize("text", [
        "e 0 1\n",                       # edge before header
        "p 3 1\np 3 1\ne 0 1\n",         # duplicate header
        "p 3 2\ne 0 1\n",                # count mismatch
        "p 3 1\ne 0 3\n",                # out of range
        "p 3 1\ne 1 1\n",                # loop
        "p 3 2\ne 0 1\ne 1 0\n",         # duplicate edge
        "p 3 1\nq 0 1\n",                # unknown record
        "p x 1\ne 0 1\n",                # bad header int
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_hash_stable(self):
        assert instance_hash(cyc(5)) == instance_hash(cyc(5))


class TestGenerators:
    @pytest.mark.parametrize("family", ["gnp_2ec", "hamiltonian_plus_chords",
                                        "cycle_of_cliques", "dumbbell",
                                        "structured_stress"])
    def test_simple_and_2ec(self, family):
        for seed in (0, 1, 2):
            g = generate(family, 16, seed)
            assert is_2ec(g)
            keys = [(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_small_sizes_parse_or_raise(self, family):
        # a size the family cannot build raises InfeasibleError; every
        # instance it does build parses back, so none carries a loop
        for n in range(1, 9):
            for seed in (0, 1, 2):
                try:
                    g = generate(family, n, seed)
                except InfeasibleError:
                    continue
                text = format_instance(g)
                assert format_instance(parse_instance(text)) == text

    def test_deterministic_for_seed(self):
        a = gen_gnp_2ec(14, 0.3, 7)
        b = gen_gnp_2ec(14, 0.3, 7)
        assert format_instance(a) == format_instance(b)

    def test_dumbbell_has_cut_pair(self):
        g = gen_dumbbell(14, 0)
        u, v = 12, 13
        assert len(g.incident(u)) == 2
        rest = g.without_vertices({u, v})
        from twoec.graph import components
        assert len(components(rest)) == 2

    def test_retry_takes_the_next_seed(self):
        # cycle_of_cliques n = 10 is not 2EC at seeds 6 to 11; each of them
        # retries with the next seed until seed 12
        got = {format_instance(gen_cycle_of_cliques(10, seed))
               for seed in range(6, 13)}
        assert got == {format_instance(gen_cycle_of_cliques(10, 12))}

    def test_structured_stress_has_anchor_cycle(self):
        g = gen_structured_stress(24, 3)
        assert is_2ec(g)
        assert g.n == 24


class TestBaseline:
    def test_c5_is_whole_cycle(self):
        assert baseline_dfs2(cyc(5)) == frozenset(range(5))

    def test_size_bound_and_feasible(self, rng):
        for _ in range(10):
            g = random_2ec_graph(rng, rng.randint(6, 14))
            sol = baseline_dfs2(g)
            assert len(sol) <= 2 * g.n - 2
            sub = g.spanning(sol)
            assert sub.n == g.n and is_2ec(sub)

    def test_rejects_bridged(self):
        g = Graph(range(3), [Edge(0, 0, 1), Edge(1, 1, 2)])
        with pytest.raises(InfeasibleError):
            baseline_dfs2(g)

    def test_output_check_raises(self, monkeypatch):
        # the input passes and the output fails the 2EC test: a raise that
        # `python -O` keeps, carrying the input
        g = cyc(5)
        monkeypatch.setattr(harness, "is_2ec", lambda h: h is g)
        with pytest.raises(InternalContradiction,
                           match="DFS baseline output") as err:
            baseline_dfs2(g)
        assert err.value.counterexample is g

    def test_matches_back_edge_scan(self, rng):
        # the one bottom-up pass against the scan over every back edge per
        # vertex: equal edge sets, or the same InfeasibleError message
        graphs = [generate(f, n, seed) for f in FAMILIES
                  for n in (8, 13, 21, 40) for seed in (0, 1)]
        for _ in range(300):
            n = rng.randint(1, 10)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))]
            pairs += [(i, (i + 1) % n) for i in range(n)] * rng.randint(0, 1)
            rng.shuffle(pairs)
            graphs.append(Graph.from_edge_list(n, pairs))
        outcomes = Counter()
        for g in graphs:
            got, want = self.outcome(baseline_dfs2, g), \
                self.outcome(reference.baseline_dfs2, g)
            assert got == want
            outcomes[type(got).__name__] += 1
        assert min(outcomes.values()) >= 100, outcomes

    @staticmethod
    def outcome(fn, g):
        try:
            return fn(g)
        except InfeasibleError as exc:
            return str(exc)


class TestVerify:
    def test_ok(self):
        g = cyc(6)
        assert verify(g, range(6))["status"] == "OK"

    def test_unknown_edge(self):
        assert verify(cyc(6), [0, 99])["status"] == "UNKNOWN_EDGE"

    def test_spanning_fail(self):
        g = Graph(range(5), [Edge(i, i, (i + 1) % 4) for i in range(4)]
                  + [Edge(4, 0, 4), Edge(5, 2, 4)])
        assert verify(g, range(4))["status"] == "SPANNING_FAIL"

    def test_bridge_detected(self):
        g = Graph(range(4), [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0),
                             Edge(3, 2, 3), Edge(4, 3, 0)])
        # every vertex is touched, and the edge 2-3 is a bridge
        assert verify(g, [0, 1, 2, 3]) == {"status": "NOT_2EC",
                                           "witness": [3]}

    def test_disconnected(self):
        # two triangles joined by 0-3 and 2-5, neither in the solution
        g = Graph(range(6), [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0),
                             Edge(3, 3, 4), Edge(4, 4, 5), Edge(5, 5, 3),
                             Edge(6, 0, 3), Edge(7, 2, 5)])
        assert verify(g, range(6)) == {"status": "NOT_2EC",
                                       "witness": ["disconnected"]}


class TestSolve:
    def test_c8_exact(self):
        sol, report = solve(cyc(8))
        assert report["size"] == 8
        assert report["verdict"] == "OK"
        assert report["certified"] is True

    def test_matches_oracle_small(self, rng):
        for _ in range(5):
            g = random_2ec_graph(rng, rng.randint(5, 11))
            sol, report = solve(g)
            assert report["size"] == len(min_2ecss(g))

    def test_infeasible_graph(self):
        g = Graph(range(3), [Edge(0, 0, 1), Edge(1, 1, 2)])
        with pytest.raises(InfeasibleError):
            solve(g)

    def test_report_deterministic(self, rng):
        g = random_2ec_graph(rng, 12)
        _, a = solve(g, seed=3, want_trace=True)
        _, b = solve(g, seed=3, want_trace=True)
        assert report_json(a) == report_json(b)

    def test_reports_share_interned_strings(self):
        # a caller that keeps many reports of one graph holds one copy of
        # its hash and of the alpha text
        g = cyc(8)
        a, b = solve(g)[1], solve(g)[1]
        assert a["instance"] is b["instance"] and a["alpha"] is b["alpha"]

    def test_one_deadline_per_solve(self, monkeypatch):
        # the base case, contractibility and 2-cut searches, and the
        # structured solver's cover search, all check the one deadline the
        # solve was given, not one of their own; each check names its
        # search, which a timeout message repeats
        seen = set()
        check = oracle._check_deadline

        def record(deadline, search):
            seen.add((deadline, search))
            check(deadline, search)

        monkeypatch.setattr(oracle, "_check_deadline", record)
        deadline = time.monotonic() + 1e6
        _, report = solve(generate("structured_stress", 40, 40),
                          deadline=deadline, want_trace=True)
        steps = set(report["trace"]["reduction_steps"])
        assert {"brute_force", "contract", "two_cut_type_AB"} <= steps
        _, report = solve(generate("gnp_2ec", 18, 5, density=0.2),
                          deadline=deadline)
        assert report["dispatched"] == 1
        assert seen == {(deadline, search) for search in (
            "exact 2EC search", "triangle-free cover search",
            "contractibility set search", "certificate pool",
            "contractibility tests")}

    @pytest.mark.parametrize("flags,want", [
        ({}, (2, True, 23)),
        ({"max_guesses": 1}, (1, False, 26)),
    ])
    def test_guess_limits(self, structured_shapes, flags, want):
        # the ring 4.5.5.4.4 is dispatched whole and certifies its solution
        # at the second guess; stopping at the first keeps a larger,
        # uncertified one
        g = structured_shapes["ring-4.5.5.4.4-s1"]
        sol, report = solve(g, **flags)
        got = (report["guesses_tried"], report["certified"], report["size"])
        assert got == want
        assert verify(g, sol)["status"] == "OK"

    @pytest.mark.parametrize("k", [0, -2])
    def test_max_guesses_below_one_refused(self, structured_shapes, k):
        # no guess at all would report the feasible ring as infeasible
        g = structured_shapes["ring-4.5.5.4.4-s1"]
        for run in (structured_solver, solve):
            with pytest.raises(ValueError, match="max_guesses"):
                run(g, max_guesses=k)

    def test_passed_deadline_raises(self):
        with pytest.raises(OracleTimeout):
            solve(generate("structured_stress", 40, 40),
                  deadline=time.monotonic())


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_counterexample_replays(self, tmp_path, capsys, monkeypatch):
        # the prism C9 x K2 reduces by no rule and is dispatched whole; a
        # structured solver that returns nothing raises, and stderr carries
        # the dispatched graph as an instance file
        rim = [(i, (i + 1) % 9) for i in range(9)]
        g = Graph.from_edge_list(18, rim + [(a + 9, b + 9) for a, b in rim]
                                 + [(i, i + 9) for i in range(9)])
        inst = tmp_path / "prism.txt"
        inst.write_text(format_instance(g))
        monkeypatch.setattr(harness, "structured_solver",
                            lambda *args, **kwargs: frozenset())
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 4
        head, text = err.split("\n", 1)
        assert head == "internal: structured solver output not 2EC"
        bad = parse_instance(text)
        assert (bad.n, bad.m) == (18, 27)
        monkeypatch.undo()
        replay = tmp_path / "replay.txt"
        replay.write_text(text)
        code, _, err = self.run(["solve", str(replay)], capsys)
        assert code == 0, err

    def test_gluing_counterexample_replays(self, tmp_path, capsys,
                                           monkeypatch, structured_shapes):
        # the ring 4.5.5.4.4 is dispatched whole and glued; a move that
        # fails its shape check raises, and stderr carries the glued graph
        # as an instance file
        ring = structured_shapes["ring-4.5.5.4.4-s1"]
        inst = tmp_path / "ring.txt"
        inst.write_text(format_instance(ring))
        monkeypatch.setattr(gluing, "canonical_violations",
                            lambda g, s: [("patched", None)])
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 4
        head, text = err.split("\n", 1)
        assert head.startswith("internal: merge rule adjacent_merge broke")
        bad = parse_instance(text)
        assert (bad.n, bad.m) == (22, 33)
        monkeypatch.undo()
        replay = tmp_path / "replay.txt"
        replay.write_text(text)
        code, _, err = self.run(["solve", str(replay)], capsys)
        assert code == 0, err

    def test_bridge_cover_counterexample_replays(self, tmp_path, capsys,
                                                 monkeypatch,
                                                 structured_shapes):
        # the ring 4.5.5.4.4 makes one bridge-cover step; with no cheap
        # path on offer the step finds a block in reach and raises, and
        # stderr carries the host graph, not bare tree nodes, as an
        # instance file
        ring = structured_shapes["ring-4.5.5.4.4-s1"]
        inst = tmp_path / "ring.txt"
        inst.write_text(format_instance(ring))
        monkeypatch.setattr(bridge_cover, "find_cheap_path", lambda tc: None)
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 4
        head, text = err.split("\n", 1)
        assert head == "internal: block reachable yet no cheap path"
        bad = parse_instance(text)
        assert (bad.n, bad.m) == (22, 33)
        monkeypatch.undo()
        replay = tmp_path / "replay.txt"
        replay.write_text(text)
        code, _, err = self.run(["solve", str(replay)], capsys)
        assert code == 0, err

    def test_counterexample_renumbered(self, tmp_path, capsys, monkeypatch):
        # a (graph, solution) counterexample on vertices 10, 20, 30, 40 is
        # written on 0..3 in sorted order, edges in id order
        g = Graph([40, 10, 30, 20], [Edge(5, 40, 10), Edge(2, 10, 30),
                                     Edge(7, 30, 20), Edge(3, 20, 40)])

        def broken(*args, **kwargs):
            raise InternalContradiction("broken", counterexample=(g, {2}))

        monkeypatch.setattr(cli, "solve", broken)
        inst = tmp_path / "c4.txt"
        inst.write_text(format_instance(cyc(4)))
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 4
        bad = parse_instance(err.split("\n", 1)[1])
        assert [(e.u, e.v) for e in bad.edges()] == [(0, 2), (1, 3), (3, 0),
                                                     (2, 1)]

    def test_gen_solve_verify_roundtrip(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        code, _, _ = self.run(["gen", "gnp_2ec", "--n", "12", "--seed", "4",
                               "--out", str(inst)], capsys)
        assert code == 0
        rep = tmp_path / "r.json"
        code, _, _ = self.run(["solve", str(inst), "--report", str(rep)],
                              capsys)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["verdict"] == "OK"
        solfile = tmp_path / "s.txt"
        solfile.write_text(" ".join(map(str, report["solution"])))
        code, out, _ = self.run(["verify", str(inst), str(solfile)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "OK"

    def test_verify_rejects_bad_solution(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "10", "--seed", "1",
                  "--out", str(inst)], capsys)
        bad = tmp_path / "s.txt"
        bad.write_text("0")
        code, out, _ = self.run(["verify", str(inst), str(bad)], capsys)
        assert code == 1

    def test_verify_non_integer_token(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "10", "--seed", "1",
                  "--out", str(inst)], capsys)
        bad = tmp_path / "s.txt"
        bad.write_text("0 1 x2")
        code, _, err = self.run(["verify", str(inst), str(bad)], capsys)
        assert code == 3
        assert err.count("\n") == 1 and "'x2'" in err

    @pytest.mark.parametrize("alpha", ["five", "1/0", "1", "6/5-"])
    def test_bad_alpha_exit_code(self, tmp_path, capsys, alpha):
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "10", "--seed", "1",
                  "--out", str(inst)], capsys)
        code, _, err = self.run(["solve", str(inst), "--alpha", alpha],
                                capsys)
        assert code == 3
        assert err.startswith("parse error: --alpha") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_bad_max_guesses_exit_code(self, tmp_path, capsys,
                                       structured_shapes, k):
        # no guess at all would report the feasible ring as infeasible
        ring = structured_shapes["ring-4.5.5.4.4-s1"]
        inst = tmp_path / "ring.txt"
        inst.write_text(format_instance(ring))
        code, _, err = self.run(["solve", str(inst), "--max-guesses", k],
                                capsys)
        assert code == 3
        assert err == f"parse error: --max-guesses {k} is below 1\n"

    @pytest.mark.parametrize("family,n", [
        ("hamiltonian_plus_chords", 1), ("hamiltonian_plus_chords", 2),
        ("cycle_of_cliques", 1), ("cycle_of_cliques", 2),
        ("structured_stress", 7)])
    def test_gen_too_small_exit_code(self, tmp_path, capsys, family, n):
        out = tmp_path / "i.txt"
        code, _, err = self.run(["gen", family, "--n", str(n),
                                 "--out", str(out)], capsys)
        assert code == 2 and not out.exists()
        assert err.startswith("infeasible: ") and err.count("\n") == 1

    def test_gen_cycle_of_cliques_n3_solves(self, tmp_path, capsys):
        # one clique: its ring link lies inside it and is dropped
        inst = tmp_path / "i.txt"
        code, _, _ = self.run(["gen", "cycle_of_cliques", "--n", "3",
                               "--seed", "0", "--out", str(inst)], capsys)
        assert code == 0
        code, out, err = self.run(["solve", str(inst)], capsys)
        assert code == 0, err
        assert json.loads(out)["size"] == 3

    def test_gen_hamiltonian_plus_chords_n3_solves(self, tmp_path, capsys):
        # the smallest Hamiltonian cycle, a triangle; at n = 2 the cycle
        # would be one edge
        inst = tmp_path / "i.txt"
        code, _, _ = self.run(["gen", "hamiltonian_plus_chords", "--n", "3",
                               "--seed", "0", "--out", str(inst)], capsys)
        assert code == 0
        assert is_2ec(parse_instance(inst.read_text()))
        code, out, err = self.run(["solve", str(inst)], capsys)
        assert code == 0, err
        assert json.loads(out)["size"] == 3

    def test_pipeline_flags_only_where_read(self, tmp_path, capsys):
        # verify and oracle run no pipeline, so its flags are usage errors;
        # --first-feasible was --max-guesses 1 and is gone
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "10", "--seed", "1",
                  "--out", str(inst)], capsys)
        sol = tmp_path / "s.txt"
        sol.write_text("0")
        for argv in (["verify", str(inst), str(sol), "--alpha", "5/4"],
                     ["oracle", str(inst), "--trace"],
                     ["solve", str(inst), "--first-feasible"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("p 3 1\ne 0 9\n")
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 3

    def test_infeasible_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "br.txt"
        inst.write_text("p 3 2\ne 0 1\ne 1 2\n")
        code, _, err = self.run(["solve", str(inst)], capsys)
        assert code == 2
        assert "infeasible" in err

    def test_oracle_infeasible_exit_code(self, tmp_path, capsys):
        # a path: one line on stderr and exit 2, as for solve
        inst = tmp_path / "path.txt"
        inst.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
        code, out, err = self.run(["oracle", str(inst)], capsys)
        assert code == 2 and out == ""
        assert err == "infeasible: input graph is not 2-edge-connected\n"

    def test_oracle_timeout_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "17", "--seed", "3",
                  "--out", str(inst)], capsys)
        code, _, err = self.run(["solve", str(inst), "--oracle-time-cap", "0"],
                                capsys)
        # a spent budget is not an invariant violation; the message names
        # the search that ran out (n = 17 reaches the set search first)
        assert code == 4
        assert err == ("budget: oracle time cap exceeded in the "
                       "contractibility set search\n")
        code, _, err = self.run(["oracle", str(inst),
                                 "--oracle-vertex-cap", "5"], capsys)
        assert code == 4
        assert err == "budget: min_2ecss called with n=17 > cap 5\n"

    def test_solve_alpha_above_three(self, tmp_path, capsys):
        # 2/(alpha-1) < 1: no contractible subgraph can exist, and graphs
        # below the 8-vertex guess of the structured solver are solved
        # exactly
        inst = tmp_path / "i.txt"
        inst.write_text(format_instance(
            generate("gnp_2ec", 12, 1, density=0.3)))
        rep = tmp_path / "r.json"
        code, _, err = self.run(["solve", str(inst), "--alpha", "4",
                                 "--report", str(rep)], capsys)
        assert code == 0, err
        report = json.loads(rep.read_text())
        assert report["verdict"] == "OK" and report["size"] == 12

    def test_oracle_subcommand(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        self.run(["gen", "hamiltonian_plus_chords", "--n", "9", "--seed", "0",
                  "--out", str(inst)], capsys)
        code, out, _ = self.run(["oracle", str(inst)], capsys)
        assert code == 0
        assert json.loads(out)["size"] == 9

    def test_bench_empty_corpus(self, capsys, tmp_path):
        code, out, _ = self.run(["bench", str(tmp_path)], capsys)
        assert code == 0
        # two real instances, solved in a process pool
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for family, n in (("gnp_2ec", 10), ("hamiltonian_plus_chords", 12)):
            self.run(["gen", family, "--n", str(n), "--seed", "1",
                      "--out", str(corpus / f"{family}.txt")], capsys)
        rep = tmp_path / "bench.json"
        code, _, err = self.run(["bench", str(corpus), "--with-opt",
                                 "--jobs", "2", "--report", str(rep)], capsys)
        assert code == 0, err
        rows = json.loads(rep.read_text())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["opt"] <= min(row["paper54"], row["dfs2approx"])
            assert Fraction(row["ratio"]) <= Fraction(5, 4)

    def test_bench_survives_solve_timeout(self, capsys, tmp_path):
        # every solve is past its deadline: each row is written with a
        # null solution size, and bench still exits 0
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for family, n in (("gnp_2ec", 10), ("hamiltonian_plus_chords", 12)):
            self.run(["gen", family, "--n", str(n), "--seed", "1",
                      "--out", str(corpus / f"{family}.txt")], capsys)
        rep = tmp_path / "b0.json"
        for extra in ([], ["--with-opt"]):
            code, _, err = self.run(["bench", str(corpus), *extra,
                                     "--oracle-time-cap", "0",
                                     "--report", str(rep)], capsys)
            assert code == 0, err
            rows = json.loads(rep.read_text())["rows"]
            assert sorted(r["instance"] for r in rows) == sorted(
                instance_hash(parse_instance(p.read_text()))
                for p in corpus.iterdir())
            for row in rows:
                assert row["paper54"] is None
                assert row.get("opt", None) is None and "ratio" not in row

    def test_verify_with_opt(self, tmp_path, capsys):
        # the optimum and ratio of `solve --with-opt`, on its own solution
        # and on every edge of the graph; a mismatch gets no optimum
        for family, n, m, opt, all_ratio in (
                ("gnp_2ec", 10, 14, 10, "7/5"),
                ("hamiltonian_plus_chords", 12, 18, 12, "3/2")):
            inst, rep = tmp_path / "i.txt", tmp_path / "r.json"
            self.run(["gen", family, "--n", str(n), "--seed", "1",
                      "--out", str(inst)], capsys)
            self.run(["solve", str(inst), "--with-opt", "--report", str(rep)],
                     capsys)
            solved = json.loads(rep.read_text())
            assert (solved["opt"], solved["ratio"]) == (opt, "1")
            for sol, size, ratio in ((solved["solution"], opt, "1"),
                                     (range(m), m, all_ratio),
                                     (range(1, m), m - 1, None)):
                path = tmp_path / "s.sol"
                path.write_text(" ".join(map(str, sol)))
                code, out, _ = self.run(["verify", str(inst), str(path),
                                         "--with-opt"], capsys)
                got = json.loads(out)
                assert got["size"] == size
                if ratio is None:
                    assert code == 1 and "opt" not in got and "ratio" not in got
                else:
                    assert code == 0
                    assert (got["opt"], got["ratio"]) == (opt, ratio)

    def test_compare_with_opt(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        self.run(["gen", "gnp_2ec", "--n", "11", "--seed", "2",
                  "--out", str(inst)], capsys)
        code, out, _ = self.run(["compare", str(inst), "--with-opt"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["size"] <= rep["dfs2approx"] or rep["ratio"] == "1"
        assert Fraction(rep["ratio"]) <= Fraction(5, 4)
        assert Fraction(rep["baseline_ratio"]) <= 2
