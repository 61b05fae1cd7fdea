"""Deterministic random-number plumbing.

Every stochastic component in the reproduction (Poisson workload, simulated
annealing, random search, latency jitter) receives an explicit
:class:`numpy.random.Generator`.  This module centralizes how generators are
created and how child streams are derived so that

* a single top-level seed reproduces an entire 48-hour experiment bit-for-bit,
* independent components (e.g. the workload and the optimizer) never share a
  stream, so adding randomness to one cannot perturb the other.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["as_generator", "spawn_child", "RngMixer", "stable_hash"]


def stable_hash(tag: str | bytes) -> int:
    """Process-independent 32-bit hash of a label.

    Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), which
    would make "seeded" runs differ between interpreter invocations; CRC32
    is stable, fast, and good enough for stream separation.
    """
    data = tag.encode() if isinstance(tag, str) else bytes(tag)
    return zlib.crc32(data) & 0x7FFFFFFF


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator (fresh OS entropy); an
    ``int`` seeds a PCG64 stream; an existing generator is passed through
    unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_child(rng: np.random.Generator, tag: str) -> np.random.Generator:
    """Derive an independent child stream from ``rng`` labelled by ``tag``.

    The tag is hashed into the jump so that the same parent produces the same
    child for the same tag, regardless of the order in which children are
    requested for *different* tags.
    """
    # Fold the tag into entropy drawn once from the parent.  Drawing a single
    # 64-bit word keeps the parent stream's consumption independent of the
    # tag content.
    base = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng((base, stable_hash(tag)))


@dataclass
class RngMixer:
    """A registry that hands out named, reproducible child generators.

    Components ask for streams by name (``mixer.stream("workload")``); the
    same name always yields the same stream for a given root seed, and every
    distinct name yields a statistically independent stream.
    """

    seed: int | None = None
    _children: dict[str, np.random.Generator] = field(
        init=False, default_factory=dict, repr=False
    )

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator registered under ``name``, creating it lazily."""
        if name not in self._children:
            seq = np.random.SeedSequence(
                entropy=self.seed if self.seed is not None else 0,
                spawn_key=(stable_hash(name),),
            )
            self._children[name] = np.random.default_rng(seq)
        return self._children[name]

    def fork(self, name: str, index: int) -> np.random.Generator:
        """Return an indexed sub-stream, e.g. one per optimization invocation."""
        seq = np.random.SeedSequence(
            entropy=self.seed if self.seed is not None else 0,
            spawn_key=(stable_hash(name), int(index)),
        )
        return np.random.default_rng(seq)
