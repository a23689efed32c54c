import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from twoec.graph import Edge, Graph, bridges


def random_2ec_graph(rng, n, extra=None):
    """Random simple 2EC graph: a random Hamiltonian cycle plus chords."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = set()
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        pairs.add((min(a, b), max(a, b)))
    if extra is None:
        extra = rng.randint(0, n)
    cand = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in pairs]
    rng.shuffle(cand)
    for p in cand[:extra]:
        pairs.add(p)
    return Graph.from_edge_list(n, sorted(pairs))


def gnp_2ec(rng, n, p, max_tries=2000):
    """Rejection-sampled G(n,p) conditioned on being simple and 2EC."""
    from twoec.graph import is_2ec
    for _ in range(max_tries):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = Graph.from_edge_list(n, pairs)
        if is_2ec(g):
            return g
    raise RuntimeError("could not sample a 2EC graph")


def random_multigraph(rng, n, m):
    """Random multigraph on 0..n-1 with m edges; loops and parallels allowed."""
    return Graph(range(n), [Edge(i, rng.randrange(n), rng.randrange(n))
                            for i in range(m)])


def random_covers(seed, count=200):
    """Seeded (g, h) pairs: a multigraph with loops and parallel edges on
    arbitrary vertex ids, edge ids in random order, and a random subset h
    of its edges; at least 30 of the h have a bridge, a lone vertex and a
    loop each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        vs = rng.sample(range(3 * n), n)
        pairs = [(rng.choice(vs), rng.choice(vs))
                 for _ in range(rng.randint(0, 2 * n + 2))]
        ids = rng.sample(range(4 * len(pairs) + 1), len(pairs))
        g = Graph(vs, [Edge(i, a, b) for i, (a, b) in zip(ids, pairs)])
        out.append((g, frozenset(rng.sample(ids, rng.randint(0, len(ids))))))
    kinds = {"bridge": 0, "lone": 0, "loop": 0}
    for g, h in out:
        sub = g.spanning(h)
        kinds["bridge"] += bool(bridges(sub))
        kinds["lone"] += any(sub.degree(v) == 0 for v in sub.vertices)
        kinds["loop"] += any(e.is_loop() for e in sub.edges())
    assert min(kinds.values()) >= 30, kinds
    return out


@st.composite
def small_graphs(draw):
    """Multigraphs on up to 8 vertices, loops and parallel edges included."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=16))
    return Graph(range(n), [Edge(i, u, v) for i, (u, v) in enumerate(chosen)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def structured_shapes():
    """The graphs of the benchmark's `structured_dispatch` workload by shape
    name: cubic 3-vertex-connected graphs that `solve` dispatches whole."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {s.name: s.build() for s in mod.WORKLOADS["structured_dispatch"]}
