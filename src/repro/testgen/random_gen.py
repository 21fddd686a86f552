"""Random test-data generation.

The cheapest heuristic: uniform sampling of the input space.  The hybrid
driver runs it first because for well-conditioned generated code a large share
of segment paths is hit by random data alone; model checking then decides
what is left, and the genetic algorithm searches for whatever the solver's
budget left open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .inputs import InputSpace


@dataclass
class RandomGeneratorStatistics:
    vectors_generated: int = 0


class RandomTestDataGenerator:
    """Seeded uniform random vector generator."""

    def __init__(self, input_space: InputSpace, seed: int = 0):
        self._space = input_space
        self._rng = random.Random(seed)
        self.statistics = RandomGeneratorStatistics()

    @property
    def input_space(self) -> InputSpace:
        return self._space

    def generate(self, count: int) -> list[dict[str, int]]:
        """Generate *count* random input vectors."""
        vectors = []
        for _ in range(count):
            vectors.append(self._space.random_vector(self._rng))
        self.statistics.vectors_generated += count
        return vectors

    def generate_unique(self, count: int, max_attempts_factor: int = 10) -> list[dict[str, int]]:
        """Generate up to *count* pairwise distinct vectors.

        Falls back to returning fewer vectors when the input space is smaller
        than requested (tiny case-study input spaces).
        """
        seen: set[tuple[tuple[str, int], ...]] = set()
        vectors: list[dict[str, int]] = []
        attempts = 0
        limit = count * max_attempts_factor
        while len(vectors) < count and attempts < limit:
            attempts += 1
            vector = self._space.random_vector(self._rng)
            key = tuple(sorted(vector.items()))
            if key in seen:
                continue
            seen.add(key)
            vectors.append(vector)
        self.statistics.vectors_generated += attempts
        return vectors
