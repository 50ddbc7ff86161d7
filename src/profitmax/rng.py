"""Deterministic random-stream derivation.

Every stochastic component draws from a stream derived from a single master
seed plus a derivation path of (label, index) pairs.  Streams derived through
the same path are identical regardless of when or where they are created, so
estimates can be replayed exactly and replications can be farmed out to
workers without affecting results.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

__all__ = ["RandomSource"]


def _derive_seed(master_seed: int, path: tuple) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master_seed).encode())
    for label, index in path:
        h.update(b"/")
        h.update(label.encode())
        h.update(b":")
        h.update(str(index).encode())
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class RandomSource:
    """A point in the stream-derivation tree rooted at ``master_seed``."""

    master_seed: int
    path: tuple = field(default=())

    def child(self, label: str, index: int = 0) -> "RandomSource":
        """Derive a sub-source for a named purpose (and replication index)."""
        return RandomSource(self.master_seed, self.path + ((label, index),))

    def generator(self) -> random.Random:
        """Fresh generator for this node; identical paths give identical draws."""
        return random.Random(_derive_seed(self.master_seed, self.path))

    def stream(self, label: str, index: int = 0) -> random.Random:
        """Shorthand for ``child(label, index).generator()``."""
        return self.child(label, index).generator()

    def seed64(self) -> int:
        """Stable 64-bit integer for seeding an independent sub-experiment."""
        return _derive_seed(self.master_seed, self.path)
