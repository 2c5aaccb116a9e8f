"""Named, reproducible random streams.

Every stochastic routine derives its generator from a master seed plus a
purpose label (and optional indices), so that changing one knob of an
experiment (say, the number of inference draws) never perturbs an unrelated
one (say, the training dataset).

Streams that come in large numbers, one per test point, are keyed instead
(Salmon et al., SC 2011): one seed sequence per (seed, labels) hashes once
and hands out four 64-bit words per item, which become the item's PCG64
initial state and increment (O'Neill 2014) through numpy's own seeding
step, so a keyed generator costs about a tenth of a :func:`stream` to make.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 63) - 1


def _entropy(seed: int, labels) -> list:
    entropy = [int(seed) & _MASK]
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            entropy.append(int(lab) & _MASK)
        else:
            entropy.append(zlib.crc32(str(lab).encode("utf-8")))
    return entropy


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the generator for (seed, labels).

    String labels are hashed with crc32 (stable across runs and platforms);
    integer labels are used as-is. The same arguments always produce a
    bit-identical stream.
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, labels)))


def stream_keys(seed: int, *labels, count: int) -> np.ndarray:
    """The keys of items 0 .. count-1 of (seed, labels): a (count, 4) uint64 array.

    Row i is words 4i to 4i + 3 of the seed sequence of (seed, labels), so an
    item's key does not depend on ``count``.
    """
    entropy = np.random.SeedSequence(_entropy(seed, labels))
    return entropy.generate_state(4 * count, np.uint64).reshape(count, 4)


class _Key(ISeedSequence):
    """A seed sequence that hands PCG64 one item's four words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def keyed(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator of one row of :func:`stream_keys`.

    PCG64 seeds itself from four words: the first two are the 128-bit
    initial state and the last two the stream selector, whose increment is
    ``(selector << 1) | 1``; the state then starts at
    ``((increment + initial state) * multiplier + increment) mod 2**128``.
    """
    return np.random.Generator(np.random.PCG64(_Key(words)))
