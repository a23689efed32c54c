"""Benchmark workloads: a fixed pool of relabelled shapes, ordered by the seed.

A workload is a list of shapes. A shape names a generator and its
parameters (family, size, generator seed), so it is one fixed graph. The
workload's pool holds POOL[workload] random vertex relabellings of every
shape, drawn from a fixed key, so the pool is the same in every run. The
solver's enumeration orders and tie breaks follow vertex labels, so the
relabellings give it different inputs whose size and structure stay those
of the shape. The workload seed draws the order in which each pass visits
the pool.

Why the seed does not draw the labellings: one shape's cost moves by up to
a hundredfold from one labelling to another, and the labellings a 30 s run
can hold (a few per shape) left seed-to-seed spreads of 0.1-0.26 of the
median, more than a regression bound can bear. Fresh generator seeds are
worse still: at n = 17 two G(n, p) draws can differ in solve time by a
factor of a thousand.

Shapes were picked by rules on properties of the input (sizes, edge counts,
connectivity, Hamiltonicity), never by measured run time; README.md gives
the rule for each workload.
"""

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from twoec import harness
from twoec.graph import Edge, Graph, is_2vc

Pairs = List[Tuple[int, int]]


@dataclass(frozen=True)
class Shape:
    name: str
    build: Callable[[], Graph]
    # Hamiltonian by construction, so the optimum is n
    hamiltonian: bool = False


@dataclass
class Instance:
    shape: str
    copy: int  # which relabelling of the shape
    text: str  # the instance file
    graph: Graph  # parsed from text
    opt: Optional[int]

    @property
    def key(self) -> Tuple[str, int]:
        return (self.shape, self.copy)


def _from_pairs(n: int, pairs: Pairs) -> Graph:
    uniq = sorted(set((min(u, v), max(u, v)) for u, v in pairs))
    return Graph(range(n), [Edge(i, u, v) for i, (u, v) in enumerate(uniq)])


def relabel(g: Graph, rng: random.Random) -> Graph:
    """A copy of g with its vertices permuted by rng; edge ids follow the
    sorted order of the relabelled endpoint pairs, as the generators do."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _from_pairs(g.n, [(perm[e.u], perm[e.v]) for e in g.edges()])


def is_3vc(g: Graph) -> bool:
    """3-vertex-connected: no single vertex removal leaves a cut vertex."""
    return g.n >= 4 and all(is_2vc(g.without_vertices({v}))
                            for v in g.vertices)


# -- cubic generators for structured_dispatch -------------------------------


def cubic_hamiltonian_matching(n: int, seed: int) -> Graph:
    """The cycle 0..n-1 plus a random perfect matching avoiding its edges;
    the first draw that is 3-vertex-connected."""
    rng = random.Random(seed)
    ring = [(i, (i + 1) % n) for i in range(n)]
    have = set((min(u, v), max(u, v)) for u, v in ring)
    for _ in range(10_000):
        vs = list(range(n))
        rng.shuffle(vs)
        match = [(min(vs[i], vs[i + 1]), max(vs[i], vs[i + 1]))
                 for i in range(0, n, 2)]
        if have.isdisjoint(match):
            g = _from_pairs(n, ring + match)
            if is_3vc(g):
                return g
    raise ValueError(f"no 3-connected cubic draw for n={n} seed={seed}")


def prism(k: int) -> Graph:
    """C_k x K_2: two k-cycles joined by a perfect matching (n = 2k)."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return _from_pairs(2 * k, pairs)


def cycle_ring(sizes: List[int], seed: int) -> Graph:
    """Cycles of the given sizes in a ring; each vertex gets one matching
    edge to the previous or the next cycle, so the graph is cubic. The first
    random choice of linking vertices that is 3-vertex-connected."""
    rng = random.Random(seed)
    back = [2]  # vertices of cycle i matched to cycle i - 1
    for c in sizes:
        back.append(c - back[-1])
    if back[-1] != back[0] or min(back) < 1:
        raise ValueError(f"ring {sizes} admits no cubic matching")
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    n = sum(sizes)
    pairs: Pairs = []
    for s, c in zip(starts, sizes):
        pairs += [(s + j, s + (j + 1) % c) for j in range(c)]
    for _ in range(10_000):
        fwd, bwd = [], []
        for i, (s, c) in enumerate(zip(starts, sizes)):
            vs = list(range(s, s + c))
            rng.shuffle(vs)
            bwd.append(vs[:back[i]])
            fwd.append(vs[back[i]:])
        links: Pairs = []
        for i in range(len(sizes)):
            dst = list(bwd[(i + 1) % len(sizes)])
            rng.shuffle(dst)
            links += list(zip(fwd[i], dst))
        g = _from_pairs(n, pairs + links)
        if g.m == n * 3 // 2 and is_3vc(g):
            return g
    raise ValueError(f"no 3-connected ring for {sizes} seed={seed}")


# -- the workloads ----------------------------------------------------------


def _gen(family: str, n: int, seed: int, **kw) -> Callable[[], Graph]:
    return lambda: harness.generate(family, n, seed, **kw)


WORKLOADS: Dict[str, List[Shape]] = {
    # gnp_2ec n=17 d=0.2: generator seeds 0..39 whose draw is
    # 2-vertex-connected with 28 <= m <= 30
    "dense_contract": [
        Shape(f"gnp_2ec-n17-d0.2-s{s}", _gen("gnp_2ec", 17, s, density=0.2))
        for s in (3, 11, 13, 15, 17, 24, 33, 36, 37, 38)
    ],
    # the three sparse families at n = 40, generator seeds 40..43
    "sparse_reduce": [
        Shape(f"{fam}-n40-s{s}", _gen(fam, 40, s),
              hamiltonian=(fam == "hamiltonian_plus_chords"))
        for fam in ("hamiltonian_plus_chords", "cycle_of_cliques",
                    "structured_stress")
        for s in (40, 41, 42, 43)
    ],
    # 3-vertex-connected cubic graphs with no contractible subgraph, so each
    # is structured as given; n = 18..22. The Hamiltonian-plus-matching draw
    # uses the first generator seed >= 1 whose draw is structured.
    "structured_dispatch": [
        Shape("ham_matching-n20-s2", lambda: cubic_hamiltonian_matching(20, 2),
              hamiltonian=True),
        Shape("prism-n18", lambda: prism(9), hamiltonian=True),
        Shape("prism-n20", lambda: prism(10), hamiltonian=True),
        Shape("ring-4.4.4.4.4-s1", lambda: cycle_ring([4, 4, 4, 4, 4], 1)),
        Shape("ring-5.5.4.4-s1", lambda: cycle_ring([5, 5, 4, 4], 1)),
        Shape("ring-4.5.5.4.4-s1", lambda: cycle_ring([4, 5, 5, 4, 4], 1)),
    ],
    # instances whose optimum is above the 2-matching lower bound
    # max(n, 2n - max 2-matching), so the exact search must deepen: every
    # such dumbbell at n = 12 (generator seeds 0..59) and gnp_2ec at
    # n = 12..14, density 0.3 (generator seeds 0..29)
    "exact_oracle": [
        Shape(f"dumbbell-n12-s{s}", _gen("dumbbell", 12, s))
        for s in (2, 11, 12, 15, 19, 20, 30, 31, 34, 35, 37, 46, 58, 59)
    ] + [
        Shape(f"gnp_2ec-n{n}-d0.3-s{s}", _gen("gnp_2ec", n, s, density=0.3))
        for n, s in ((12, 6), (12, 20), (12, 24), (13, 27), (13, 29), (14, 12))
    ],
}


# relabellings of every shape in a workload's pool; a pass over the pool
# takes 10-15 s on a 2-vCPU x86-64 machine, so a 30 s run makes two
POOL = {"dense_contract": 3, "sparse_reduce": 3, "structured_dispatch": 4,
        "exact_oracle": 10}
# the pool every run uses, and one kept back for checking a claimed gain
POOL_KEYS = ("main", "holdout")


def build(workload: str, seed: int, passes: int,
          pool: str = "main") -> List[List[Instance]]:
    """The inputs of every pass: the workload's pool in an order drawn from
    (workload, seed, pass). The pool holds every shape, generated, then
    relabelled with a generator drawn from (workload, pool, shape, copy),
    formatted to the instance file format and parsed back."""
    items = []
    for i, sh in enumerate(WORKLOADS[workload]):
        g = sh.build()
        for c in range(POOL[workload]):
            rng = random.Random(f"{workload}/{pool}/{i}/{c}")
            text = harness.format_instance(relabel(g, rng), [sh.name])
            parsed = harness.parse_instance(text)
            items.append(Instance(sh.name, c, text, parsed,
                                  parsed.n if sh.hamiltonian else None))
    out = []
    for p in range(passes):
        row = list(items)
        random.Random(f"{workload}/{seed}/{p}").shuffle(row)
        out.append(row)
    return out
