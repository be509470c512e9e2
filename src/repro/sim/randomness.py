"""Named deterministic random streams.

Every stochastic component (latency jitter, traffic generation, failure
injection, join randomization, ...) draws from its own named stream derived
from a single master seed.  This keeps experiments reproducible while
ensuring that adding draws in one component does not perturb another.
"""

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent ``random.Random`` instances keyed by name."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        rng = random.Random(derive_seed(self.master_seed, name))
        # Bounded by the distinct stream names.
        self._streams[name] = rng
        return rng

    def reset(self, name: str) -> random.Random:
        """Re-seed the named stream to its initial state and return it."""
        rng = random.Random(derive_seed(self.master_seed, name))
        self._streams[name] = rng
        return rng
