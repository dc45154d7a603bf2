"""Host-speed reference: a fixed replay timed once per round.

The benchmark runs on a shared host whose speed drifts by up to 1.7×
over tens of seconds to minutes. The drift moves every wall-clock
metric of a run together, and it is most of the run-to-run spread: on
the host the bounds were set on, dividing each run's throughput by the
speed of the audit (a pure-Python replay timed in the same rounds) cut
the spread over ten seeds from 0.18–0.23 to 0.03–0.09.

The audit itself is program code, so it cannot be the yardstick: a
change that speeds up ``core.mot`` would move it. :class:`Reference`
is the benchmark's own stand-in of the same character — a replay of a
fixed op stream through a location directory kept in dicts of small
objects, with distances read one by one from a NumPy matrix — and it
never changes with the program. A run times one replay after every
round, takes

    slowness = median(replay times) / REFERENCE_S

and scales its wall-clock metrics by ``slowness ** ELASTICITY`` (times
divided by it, rates multiplied by it). A program that gets slower
still reads slower; only the host's drift cancels.

Serving moves with the host less than the replay does: over five seeds
per workload, scaling by the full slowness made ``walk-mixed`` less
steady, while half of it (in logs) left no spread more than 0.01
above the unscaled one and cut the throughput and p50 spreads of
``crowd-query`` and ``worker-pipe`` by a quarter to a third. Hence
``ELASTICITY = 0.5``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["ELASTICITY", "REFERENCE_S", "Reference"]

#: median replay time on the 2-vCPU Xeon VM the bounds were set on, so
#: scaled figures stay close to that host's raw ones
REFERENCE_S = 0.25
#: share (in logs) of the host's slowness that the scaling removes
ELASTICITY = 0.5

_SIDE = 32
_NODES = _SIDE * _SIDE
_LEVELS = 6
_OBJECTS = 2000
_OPS = 96_000


class _Entry:
    __slots__ = ("obj", "child", "seq")

    def __init__(self, obj: int, child: int, seq: int) -> None:
        self.obj = obj
        self.child = child
        self.seq = seq


class Reference:
    """A fixed directory replay; :meth:`sample` times one run of it."""

    def __init__(self) -> None:
        rows, cols = np.divmod(np.arange(_NODES), _SIDE)
        self._dist = (np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])).astype(float)
        # cluster of each node at each level: 2^level × 2^level blocks
        self._cluster = [
            [(r >> lvl) * _SIDE + (c >> lvl) for r, c in zip(rows.tolist(), cols.tolist())]
            for lvl in range(_LEVELS)
        ]
        state = 12345
        self._starts: list[int] = []
        self._ops: list[tuple[bool, int, int]] = []
        for i in range(_OBJECTS + _OPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            if i < _OBJECTS:
                self._starts.append(state % _NODES)
            else:
                self._ops.append((state & 1 == 0, (state >> 1) % _OBJECTS, (state >> 12) % _NODES))
        self.times: list[float] = []

    def _replay(self) -> float:
        dist, cluster = self._dist, self._cluster
        levels: list[dict[int, dict[int, _Entry]]] = [{} for _ in range(_LEVELS)]
        where: dict[int, int] = {}
        for obj, node in enumerate(self._starts):
            where[obj] = node
            for lvl in range(_LEVELS):
                levels[lvl].setdefault(cluster[lvl][node], {})[obj] = _Entry(obj, node, 0)
        cost = 0.0
        for seq, (is_move, obj, node) in enumerate(self._ops, 1):
            if is_move:
                old = where[obj]
                cost += float(dist[old, node])
                for lvl in range(_LEVELS):
                    c_old, c_new = cluster[lvl][old], cluster[lvl][node]
                    if c_old == c_new:
                        entry = levels[lvl][c_old][obj]
                        entry.child = node
                        entry.seq = seq
                        break
                    del levels[lvl][c_old][obj]
                    levels[lvl].setdefault(c_new, {})[obj] = _Entry(obj, node, seq)
                where[obj] = node
            else:
                for lvl in range(_LEVELS):
                    found = levels[lvl].get(cluster[lvl][node])
                    if found is not None and obj in found:
                        cost += float(dist[node, found[obj].child]) + lvl
                        break
                else:
                    cost += float(dist[node, where[obj]]) + _LEVELS
        return cost

    def sample(self) -> None:
        """Time one replay and keep its time."""
        t0 = time.perf_counter()
        self._replay()
        self.times.append(time.perf_counter() - t0)

    def slowness(self) -> float:
        """Median replay time over the reference: > 1 on a slow host."""
        return statistics.median(self.times) / REFERENCE_S

    def factor(self) -> float:
        """What the run's wall-clock figures are scaled by."""
        return self.slowness() ** ELASTICITY
