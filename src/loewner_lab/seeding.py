"""Deterministic RNG streams.

All randomness in the package flows through counter-based Philox generators
keyed by an integer seed plus an explicit spawn path.  A stream derived from
``(seed, *path)`` is independent of every other path and of the order in
which streams are created, so a campaign's report does not depend on how
its instances are grouped into windows.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``(seed, *path)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=ss))


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return spawn_rng(int(seed))
