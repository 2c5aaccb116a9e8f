import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from itslab import stream
from itslab.rngstreams import keyed, stream_keys


def test_same_arguments_same_stream():
    a = stream(42, "teacher").standard_normal(8)
    b = stream(42, "teacher").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_purpose_labels_separate_streams():
    a = stream(42, "teacher").standard_normal(8)
    b = stream(42, "data").standard_normal(8)
    c = stream(43, "teacher").standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_index_labels_separate_streams():
    a = stream(7, "inference", 0).standard_normal(4)
    b = stream(7, "inference", 1).standard_normal(4)
    assert not np.array_equal(a, b)


def test_mixed_label_types_are_stable():
    a = stream(0, "x", 3, "y").standard_normal(3)
    b = stream(0, "x", 3, "y").standard_normal(3)
    np.testing.assert_array_equal(a, b)


def test_negative_seed_accepted():
    a = stream(-5, "teacher").standard_normal(2)
    b = stream(-5, "teacher").standard_normal(2)
    np.testing.assert_array_equal(a, b)


def test_chunked_draws_match_single_draw():
    # sequential draws consume the stream identically however they are
    # batched; the Monte Carlo engines rely on this when chunking rows
    whole = stream(11, "inf").standard_normal(1000)
    g = stream(11, "inf")
    parts = np.concatenate([g.standard_normal(300), g.standard_normal(700)])
    np.testing.assert_array_equal(whole, parts)


def test_keys_do_not_depend_on_the_count():
    long = stream_keys(7, "inference", 2, count=50)
    assert long.shape == (50, 4) and long.dtype == np.uint64
    np.testing.assert_array_equal(stream_keys(7, "inference", 2, count=3), long[:3])
    assert not np.array_equal(stream_keys(7, "inference", 3, count=3), long[:3])
    # the seed sequence of (seed, labels) is the one stream() seeds from
    entropy = np.random.SeedSequence([7, zlib.crc32(b"inference"), 2])
    np.testing.assert_array_equal(entropy.generate_state(200, np.uint64).reshape(50, 4), long)


class _Words(ISeedSequence):
    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words


def test_keyed_generator_is_pcg64_seeded_with_the_words():
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    for words in stream_keys(11, "inference", 0, count=20):
        gen = keyed(words)
        assert gen.bit_generator.state == np.random.PCG64(_Words(words)).state
        # numpy's seeding step: inc = (initseq << 1) | 1, state = ((inc + initstate) mult + inc) mod 2^128
        a, b, c, d = (int(v) for v in words)
        inc = (((c << 64) | d) << 1 | 1) % 2**128
        state = ((inc + ((a << 64) | b)) * mult + inc) % 2**128
        assert gen.bit_generator.state["state"] == {"state": state, "inc": inc}
        twin = np.random.Generator(np.random.PCG64(_Words(words)))
        np.testing.assert_array_equal(gen.standard_normal(5), twin.standard_normal(5))
