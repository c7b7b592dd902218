"""Checkpointed lazy AR(1) chain behind the stochastic cloud model.

:class:`~repro.energy.solar.CloudProcess` samples a mean-reverting
AR(1) state on a fixed time grid, seeded per index so the chain is
deterministic and independent of query order.  The chain is inherently
sequential (state *i* depends on state *i−1*), but callers access it
almost monotonically with occasional jumps, so this helper keeps:

* the last computed ``(index, state)`` pair — the common forward access
  resumes in O(gap); and
* a checkpoint every ``checkpoint_every`` indices — a backward or
  post-jump access regenerates at most ``checkpoint_every − 1`` steps
  from the nearest preceding checkpoint instead of replaying the whole
  chain from index 0.

Memory is O(max_index / checkpoint_every) instead of the previous
every-index cache, and any access order produces bit-identical states:
the recurrence ``state = persistence · state + Random(seed_base ^ i)
.gauss(0, sigma)`` is replayed with exactly the same float operations
whichever anchor it restarts from.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..exceptions import ConfigurationError


class CheckpointedAR1:
    """Lazy, random-access AR(1) state chain with periodic checkpoints.

    ``state(i)`` is 0 for ``i <= 0`` and otherwise
    ``persistence * state(i-1) + Random(seed_base ^ i).gauss(0, sigma)``.
    """

    __slots__ = (
        "_seed_base",
        "_persistence",
        "_sigma",
        "_checkpoint_every",
        "_checkpoints",
        "_last_index",
        "_last_state",
    )

    def __init__(
        self,
        seed_base: int,
        persistence: float,
        sigma: float,
        checkpoint_every: int = 1024,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        self._seed_base = seed_base
        self._persistence = persistence
        self._sigma = sigma
        self._checkpoint_every = checkpoint_every
        self._checkpoints: Dict[int, float] = {0: 0.0}
        self._last_index = 0
        self._last_state = 0.0

    @property
    def checkpoint_count(self) -> int:
        """Number of stored checkpoints (memory diagnostic for tests)."""
        return len(self._checkpoints)

    def state(self, index: int) -> float:
        """Latent AR(1) state at grid ``index`` (0 for index <= 0)."""
        if index <= 0:
            return 0.0
        if index == self._last_index:
            return self._last_state
        if index > self._last_index:
            start = self._last_index
            state = self._last_state
        else:
            # Rewind to the nearest checkpoint at or before the index.
            start = (index // self._checkpoint_every) * self._checkpoint_every
            while start not in self._checkpoints:
                start -= self._checkpoint_every
            state = self._checkpoints[start]
        every = self._checkpoint_every
        persistence = self._persistence
        sigma = self._sigma
        seed_base = self._seed_base
        for i in range(start + 1, index + 1):
            state = persistence * state + random.Random(seed_base ^ i).gauss(
                0.0, sigma
            )
            if i % every == 0:
                self._checkpoints[i] = state
        self._last_index = index
        self._last_state = state
        return state

    def states(self, lo: int, hi: int) -> List[float]:
        """States for every grid index in ``[lo, hi]`` (one ordered walk).

        The batch counterpart of :meth:`state` for the vectorized
        engines: a single forward replay of the recurrence, yielding the
        same floats as per-index calls, without per-call anchor checks.
        """
        if hi < lo:
            return []
        out: List[float] = []
        index = lo
        while index <= 0 and index <= hi:
            out.append(0.0)
            index += 1
        if index > hi:
            return out
        state = self.state(index)  # anchors (and rewinds) the chain
        out.append(state)
        persistence = self._persistence
        sigma = self._sigma
        seed_base = self._seed_base
        every = self._checkpoint_every
        for i in range(index + 1, hi + 1):
            state = persistence * state + random.Random(seed_base ^ i).gauss(
                0.0, sigma
            )
            if i % every == 0:
                self._checkpoints[i] = state
            out.append(state)
        if hi > self._last_index:
            self._last_index = hi
            self._last_state = state
        return out
