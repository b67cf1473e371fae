"""Seeded random streams used by the simulator and the samplers.

All stochastic code in this package draws from a :class:`RandomStream` so that
every experiment is reproducible from a single integer seed.  A stream is a
thin wrapper around numpy's PCG64 generator; substreams for independent jobs
(one per sweep point, one per chain, ...) are derived from the same seed with
a distinct ``stream_id`` so they never share state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]


class RandomStream:
    """Deterministic random source keyed by ``(seed, stream_id)``.

    Two streams built from the same key produce identical draw sequences;
    streams with different keys are statistically independent (distinct
    PCG64 seed-sequence entropy).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream_id)))
        )

    # -- scalar draws -------------------------------------------------------

    def standard_normal(self) -> float:
        return float(self._gen.standard_normal())

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        return float(self._gen.random())

    # -- vector draws (same underlying sequence as repeated scalar calls) ---

    def standard_normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n draws from U[0, 1); leaves the stream where n uniform() calls would."""
        return self._gen.random(n)

    def poissons(self, means: np.ndarray) -> np.ndarray:
        means = np.asarray(means, dtype=float)
        if means.size and means.min() <= 0:
            raise ValueError("Poisson means must all be > 0")
        return self._gen.poisson(means)
