"""A fixed pure-Python calibration loop, independent of twoec.

The benchmark's timing metrics are expressed in units of this loop's time,
sampled between operations all through a run. On a shared machine the
core's speed drifts by up to a factor of two over seconds to minutes; the
loop slows down with it, so the ratio of an operation's time to the loop's
time stays steady where raw wall time does not. The loop does the kind of
work the solver does (adjacency lists, sets, dicts, small tuples, a queue)
on one graph fixed here, so its cost never depends on the workload, the
seed or the program under test.
"""

import random
from collections import deque
from time import perf_counter

_N = 160
_rng = random.Random(20240813)
_ADJ = [[] for _ in range(_N)]
for _v in range(_N):
    for _u in _rng.sample(range(_N), 3):
        if _u != _v and _u not in _ADJ[_v]:
            _ADJ[_v].append(_u)
            _ADJ[_u].append(_v)


def _work() -> int:
    total = 0
    for root in range(0, _N, 20):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in _ADJ[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        far = {v for v, d in dist.items() if d >= 3}
        pairs = sorted((min(v, u), max(v, u)) for v in far for u in _ADJ[v])
        total += len(far) + len(set(pairs))
    return total


EXPECTED = _work()


def sample() -> float:
    """Seconds one pass of the loop takes now."""
    t0 = perf_counter()
    result = _work()
    dt = perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError("reference loop gave a different result")
    return dt
