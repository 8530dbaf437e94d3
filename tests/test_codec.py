import numpy as np
import pytest

import sparseppc as sp
from sparseppc.codec import (ESCAPE, PositionCoder, Quantizer,
                             _huffman_codebook, codec_from_dict, codec_to_dict)
from sparseppc.errors import (CodecTrainingError, ConfigError, DecodeError,
                              QuantizerRangeError)


def test_quantize_examples():
    q = Quantizer(delta=0.001)
    # tie at 1.5 steps resolves to the even index under ties-to-even
    idx = sp.quantize_packet(q, [0.0, 0.0004, 0.0015, -0.0015])
    assert idx.dtype == np.int64
    assert idx.tolist() == [0, 0, 2, -2]
    assert sp.dequantize(q, idx).tolist() == [0.0, 0.0, 0.002, -0.002]


def test_quantize_error_bound_random(rng):
    q = Quantizer(delta=0.001)
    vals = rng.uniform(-50.0, 50.0, 5000)
    idx = sp.quantize_packet(q, vals)
    back = sp.dequantize(q, idx)
    assert np.max(np.abs(vals - back)) <= 0.5 * q.delta


def test_quantize_range_and_validation():
    q = Quantizer(delta=0.001)
    with pytest.raises(QuantizerRangeError):
        sp.quantize_packet(q, [1e9])
    with pytest.raises(QuantizerRangeError):
        sp.quantize_packet(q, [float("nan")])
    with pytest.raises(ConfigError):
        Quantizer(delta=0.0)


def test_huffman_degenerate_single_symbol():
    book = _huffman_codebook({0: 100})
    assert book == {0: "0"}


def test_huffman_uniform_four_symbols():
    book = _huffman_codebook({0: 10, 1: 10, 2: 10, 3: 10})
    assert sorted(len(w) for w in book.values()) == [2, 2, 2, 2]


def test_huffman_deterministic_codebooks():
    freqs = {0: 5, 1: 5, 2: 7, ESCAPE: 1}
    assert _huffman_codebook(dict(freqs)) == _huffman_codebook(dict(reversed(list(freqs.items()))))


def _train(samples, scheme, delta=0.001):
    return sp.train_codec([np.asarray(s, dtype=np.int64) for s in samples], scheme,
                          Quantizer(delta=delta))


def test_position_coder_prefix_free_and_kraft(rng):
    packets = [rng.integers(-40, 40, 10) for _ in range(300)]
    for scheme in ("dense", "sparse"):
        codec = _train(packets, scheme)
        for coder in codec.coders:
            words = list(coder.codebook.values())
            for w in words:
                others = [o for o in words if o is not w]
                assert not any(o.startswith(w) for o in others)
            assert coder.kraft_sum() <= 1.0 + 1e-12
            assert ESCAPE in coder.codebook


def test_sparse_tail_trained_on_nonzero_only():
    packets = [[1, 1, 1, 1, 1, 1, 0, 0, 0, 0] for _ in range(50)]
    codec = _train(packets, "sparse")
    for p in range(5, 10):
        # zero never entered the tail alphabets: escape plus nothing else
        assert set(codec.coders[p].codebook) == {1, ESCAPE} or \
            set(codec.coders[p].codebook) == {ESCAPE}
    assert set(codec.coders[9].codebook) == {ESCAPE}  # all-zero position


def test_train_codec_rejects_empty():
    with pytest.raises(CodecTrainingError):
        _train([], "dense")


def test_encode_all_zero_packet_sparse_scheme():
    packets = [np.zeros(10, dtype=np.int64) for _ in range(20)]
    codec = _train(packets, "sparse")
    enc = sp.encode(codec, np.zeros(10, dtype=np.int64))
    head_bits = sum(len(codec.coders[p].codebook[0]) for p in range(5))
    assert enc.bitmap == "00000"
    assert enc.bit_count == head_bits + 5  # no tail codewords at all
    assert np.array_equal(sp.decode(codec, enc), np.zeros(10))


def test_dense_bit_count_is_sum_of_codeword_lengths(rng):
    packets = [rng.integers(-5, 6, 8) for _ in range(200)]
    codec = _train(packets, "dense")
    pkt = packets[0]
    enc = sp.encode(codec, pkt)
    want = sum(len(codec.coders[p].codebook[int(v)]) for p, v in enumerate(pkt))
    assert enc.bit_count == want == len(enc.bits)


def test_sparse_accounting_recount(rng):
    packets = []
    for _ in range(200):
        p = rng.integers(-6, 7, 10)
        p[rng.random(10) < 0.5] = 0
        packets.append(p)
    codec = _train(packets, "sparse")
    for pkt in packets[:50]:
        enc = sp.encode(codec, pkt)
        head = sum(len(codec.coders[i].codebook[int(pkt[i])]) for i in range(5))
        tail = sum(len(codec.coders[i].codebook[int(pkt[i])])
                   for i in range(5, 10) if pkt[i] != 0)
        assert enc.bit_count == head + 5 + tail
        assert enc.bitmap == "".join("1" if pkt[i] != 0 else "0" for i in range(5, 10))


def test_escape_roundtrip():
    packets = [[0, 1] for _ in range(10)]
    codec = _train(packets, "dense")
    unseen = np.array([73, -120000], dtype=np.int64)
    enc = sp.encode(codec, unseen)
    assert np.array_equal(sp.decode(codec, enc), unseen)
    esc_len = len(codec.coders[0].codebook[ESCAPE])
    assert enc.bit_count >= esc_len + 32


def test_roundtrip_property_random_packets(rng):
    train = [rng.integers(-30, 31, 10) for _ in range(500)]
    for scheme in ("dense", "sparse"):
        codec = _train(train, scheme)
        for _ in range(10_000 // 2):
            pkt = rng.integers(-60, 61, 10)  # wider than training: exercises escape
            enc = sp.encode(codec, pkt)
            assert np.array_equal(sp.decode(codec, enc), pkt)


def test_decode_malformed_raises_with_offset(rng):
    codec = _train([rng.integers(-3, 4, 6) for _ in range(50)], "dense")
    enc = sp.encode(codec, np.array([1, 2, 3, -1, 0, 2], dtype=np.int64))
    truncated = sp.EncodedPacket(bits=enc.bits[: len(enc.bits) // 2],
                                 bit_count=len(enc.bits) // 2)
    with pytest.raises(DecodeError) as exc_info:
        sp.decode(codec, truncated)
    assert exc_info.value.bit_offset is not None


def test_skewed_alphabet_expected_length_near_entropy(rng):
    # 90/10 two-symbol position plus the escape pseudo-count: the trained
    # code's expected length on the training set stays within one bit of
    # the empirical entropy plus the escape overhead
    samples = [[0] if rng.random() < 0.9 else [7] for _ in range(2000)]
    codec = _train(samples, "dense")
    coder = codec.coders[0]
    assert coder.kraft_sum() <= 1.0 + 1e-12
    counts = {0: sum(s[0] == 0 for s in samples), 7: sum(s[0] == 7 for s in samples)}
    total = sum(counts.values())
    probs = np.array([c / total for c in counts.values()])
    entropy = float(-np.sum(probs * np.log2(probs)))
    mean_len = sum(counts[s] * len(coder.codebook[s]) for s in counts) / total
    esc_overhead = len(coder.codebook[ESCAPE]) / total  # pseudo-count share
    assert mean_len <= entropy + 1.0 + esc_overhead


def test_mean_bits_matches_entropy_accounting_oracle(rng):
    from .oracles import expected_mean_bits

    packets = []
    for _ in range(400):
        p = rng.integers(-10, 11, 10)
        p[rng.random(10) < 0.4] = 0
        packets.append(p)
    for scheme in ("dense", "sparse"):
        codec = _train(packets, scheme)
        mean_bits = np.mean([sp.encode(codec, p).bit_count for p in packets])
        assert abs(mean_bits - expected_mean_bits(codec, packets)) <= 0.1


def test_codec_serialization_roundtrip(rng):
    packets = [rng.integers(-8, 9, 10) for _ in range(100)]
    codec = _train(packets, "sparse")
    doc = codec_to_dict(codec)
    back = codec_from_dict(doc)
    pkt = packets[0]
    assert sp.encode(back, pkt).bits == sp.encode(codec, pkt).bits
    assert back.scheme == "sparse" and back.quantizer.delta == codec.quantizer.delta


def test_encoded_packet_hex_dump(rng):
    packets = [rng.integers(-3, 4, 4) for _ in range(30)]
    codec = _train(packets, "dense")
    enc = sp.encode(codec, packets[0])
    h = enc.to_hex()
    assert len(h) == 2 * ((enc.bit_count + 7) // 8)
    int(h, 16)


def test_sparse_scheme_requires_even_length(rng):
    with pytest.raises(ConfigError):
        _train([rng.integers(-2, 3, 5) for _ in range(10)], "sparse")


def test_position_coder_rejects_bad_codebooks():
    with pytest.raises(CodecTrainingError):
        PositionCoder(position=0, codebook={0: "0", 1: "01", ESCAPE: "1"})
    with pytest.raises(CodecTrainingError):
        PositionCoder(position=0, codebook={0: "0", 1: "1"})
