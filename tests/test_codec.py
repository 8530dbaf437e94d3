import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sparseppc as sp
from sparseppc.codec import (ESCAPE, ESCAPE_RAW_BITS, PacketCodec, PositionCoder, Quantizer,
                             _code_lengths, bit_account, codec_to_dict, dequantize)
from sparseppc.errors import (CodecTrainingError, ConfigError, DecodeError,
                              QuantizerRangeError)

from .oracles import (bit_account_reference, codec_from_dict, codec_reference, codewords,
                      huffman_reference, packet_bits, packet_of_bits, train_codec_reference)


def test_quantize_examples():
    q = Quantizer(delta=0.001)
    # tie at 1.5 steps resolves to the even index under ties-to-even
    idx = sp.quantize_packet(q, [0.0, 0.0004, 0.0015, -0.0015])
    assert idx.dtype == np.int64
    assert idx.tolist() == [0, 0, 2, -2]
    assert dequantize(q, idx).tolist() == [0.0, 0.0, 0.002, -0.002]


def test_quantize_error_bound_random(rng):
    q = Quantizer(delta=0.001)
    vals = rng.uniform(-50.0, 50.0, 5000)
    idx = sp.quantize_packet(q, vals)
    back = dequantize(q, idx)
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
    assert _code_lengths([100]) == [1]
    coder = PositionCoder(position=0, lengths=dict(zip([ESCAPE], _code_lengths([1]))))
    assert codewords(coder) == {ESCAPE: "0"}
    assert coder.codes == {ESCAPE: (0, 1)}


def test_huffman_uniform_four_symbols():
    lengths = _code_lengths([10, 10, 10, 10])
    assert sorted(lengths) == [2, 2, 2, 2]


def test_huffman_deterministic_codebooks():
    symbols, weights = [0, 1, 2, ESCAPE], [5, 5, 7, 1]
    lengths = dict(zip(symbols, _code_lengths(weights)))
    assert lengths == dict(zip(symbols, _code_lengths(np.array(weights, dtype=np.int64))))
    shuffled = dict(reversed(list(lengths.items())))
    assert PositionCoder(0, lengths).codes == PositionCoder(0, shuffled).codes


def _kraft_sum(lengths) -> float:
    return sum(2.0 ** -n for n in lengths.values())


@settings(max_examples=300, deadline=None)
@given(freqs=st.dictionaries(st.integers(-1000, 1000), st.integers(1, 40), max_size=60),
       escape=st.one_of(st.none(), st.integers(1, 40)))
def test_code_lengths_match_tree_reference(freqs, escape):
    # small frequency ranges force ties; the escape-only alphabet is included;
    # the weights go in symbol order, integers ascending and the escape last
    if escape is not None:
        freqs[ESCAPE] = escape
    symbols = sorted(s for s in freqs if s != ESCAPE) + [ESCAPE] * (escape is not None)
    if not freqs:
        with pytest.raises(CodecTrainingError):
            _code_lengths([])
        return
    want = {s: len(w) for s, w in huffman_reference(freqs).items()}
    assert dict(zip(symbols, _code_lengths([freqs[s] for s in symbols]))) == want


@pytest.mark.parametrize("scheme", ["sparse", "dense"])
def test_bit_account_equals_the_counter_reference(rng, scheme):
    # test packets with indices training never saw (escapes), a tail
    # position trained on zeros only (an escape-only code) and one never
    # nonzero in the test packets
    train = rng.integers(-6, 7, (200, 10))
    train[:, 7] = 0
    test = rng.integers(-9, 10, (120, 10))
    test[:, 9] = 0
    test[:3, 0] = [2**31 - 1, -2**31, 40]
    codec = sp.train_codec(train, scheme, Quantizer(delta=0.001))
    got, want = bit_account(codec, test.reshape(12, 10, 10)), bit_account_reference(codec, test)
    # the same codes, their length tables in the JSON's string order of the symbols
    rebuilt = codec_from_dict(json.loads(json.dumps(codec_to_dict(codec), sort_keys=True)))
    assert list(rebuilt.coders[0].lengths) != list(codec.coders[0].lengths)
    assert bit_account(rebuilt, test) == got
    assert got["bitmap"] == want["bitmap"] == (5 if scheme == "sparse" else 0)
    assert got["codewords"] == want["codewords"] / 120 and got["escapes"] == want["escapes"] / 120
    assert want["escapes"] > 0
    assert got["entropy"] == pytest.approx(want["entropy"], rel=1e-12, abs=1e-12)
    assert got["bound"] == pytest.approx(sum(want["entropy"]) + want["bitmap"], rel=1e-12)
    bits = [sp.encode(codec, row).bit_count for row in test]
    assert want["bitmap"] * 120 + want["codewords"] + want["escapes"] == sum(bits)


def test_bit_account_refuses_what_encode_refuses():
    codec = sp.train_codec(np.zeros((3, 4), dtype=np.int64), "sparse", Quantizer(delta=0.001))
    empty, short = np.zeros((0, 4), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)
    for bad in (empty, short, 5, [[0.5] * 4]):
        with pytest.raises(ConfigError):
            bit_account(codec, bad)
    with pytest.raises(QuantizerRangeError):
        bit_account(codec, [[0, 0, 2**31, 0]])


def _train(samples, scheme, delta=0.001):
    return sp.train_codec([np.asarray(s, dtype=np.int64) for s in samples], scheme,
                          Quantizer(delta=delta))


def test_position_coder_prefix_free_and_kraft(rng):
    packets = [rng.integers(-40, 40, 10) for _ in range(300)]
    for scheme in ("dense", "sparse"):
        codec = _train(packets, scheme)
        for coder in codec.coders:
            words = list(codewords(coder).values())
            for w in words:
                others = [o for o in words if o is not w]
                assert not any(o.startswith(w) for o in others)
            assert _kraft_sum(coder.lengths) <= 1.0 + 1e-12
            assert ESCAPE in coder.lengths
            assert {s: len(w) for s, w in codewords(coder).items()} == coder.lengths


def test_codewords_are_canonical():
    # sorted by (length, symbol order), codewords count up by one and are
    # shifted left whenever the length grows
    coder = PositionCoder(position=0, lengths={ESCAPE: 4, 9: 4, -3: 3, 5: 2, 0: 1})
    assert codewords(coder) == {0: "0", 5: "10", -3: "110", 9: "1110", ESCAPE: "1111"}
    # within one length: integers ascending, the escape symbol last
    coder = PositionCoder(position=0, lengths={3: 2, ESCAPE: 2, 0: 2, -1: 2})
    assert codewords(coder) == {-1: "00", 0: "01", 3: "10", ESCAPE: "11"}


def test_sparse_tail_trained_on_nonzero_only():
    packets = [[1, 1, 1, 1, 1, 1, 0, 0, 0, 0] for _ in range(50)]
    codec = _train(packets, "sparse")
    for p in range(5, 10):
        # zero never entered the tail alphabets: escape plus nothing else
        assert set(codec.coders[p].lengths) == {1, ESCAPE} or \
            set(codec.coders[p].lengths) == {ESCAPE}
    assert set(codec.coders[9].lengths) == {ESCAPE}  # all-zero position


def test_train_codec_rejects_empty():
    with pytest.raises(CodecTrainingError):
        _train([], "dense")


def test_encode_all_zero_packet_sparse_scheme():
    packets = [np.zeros(10, dtype=np.int64) for _ in range(20)]
    codec = _train(packets, "sparse")
    enc = sp.encode(codec, np.zeros(10, dtype=np.int64))
    head_bits = sum(codec.coders[p].lengths[0] for p in range(5))
    assert packet_bits(enc)[head_bits:] == "00000"  # the bitmap, then no tail codewords
    assert enc.bit_count == head_bits + 5
    assert np.array_equal(sp.decode(codec, enc), np.zeros(10))


def test_dense_bit_count_is_sum_of_codeword_lengths(rng):
    packets = [rng.integers(-5, 6, 8) for _ in range(200)]
    codec = _train(packets, "dense")
    pkt = packets[0]
    enc = sp.encode(codec, pkt)
    want = sum(codec.coders[p].lengths[int(v)] for p, v in enumerate(pkt))
    assert enc.bit_count == want == len(packet_bits(enc))


def test_sparse_accounting_recount(rng):
    packets = []
    for _ in range(200):
        p = rng.integers(-6, 7, 10)
        p[rng.random(10) < 0.5] = 0
        packets.append(p)
    codec = _train(packets, "sparse")
    for pkt in packets[:50]:
        enc = sp.encode(codec, pkt)
        head = sum(codec.coders[i].lengths[int(pkt[i])] for i in range(5))
        tail = sum(codec.coders[i].lengths[int(pkt[i])]
                   for i in range(5, 10) if pkt[i] != 0)
        assert enc.bit_count == head + 5 + tail
        bitmap = "".join("1" if pkt[i] != 0 else "0" for i in range(5, 10))
        assert packet_bits(enc)[head:head + 5] == bitmap


def test_escape_roundtrip():
    packets = [[0, 1] for _ in range(10)]
    codec = _train(packets, "dense")
    unseen = np.array([73, -120000], dtype=np.int64)
    enc = sp.encode(codec, unseen)
    assert np.array_equal(sp.decode(codec, enc), unseen)
    esc_bits = sum(c.lengths[ESCAPE] + ESCAPE_RAW_BITS for c in codec.coders)
    assert enc.bit_count == esc_bits


def test_escape_field_limits():
    # the 32-bit two's-complement escape field carries [-2^31, 2^31 - 1]
    codec = _train([[0, 1] for _ in range(10)], "dense")
    for edge in ([2**31 - 1, -(2**31 - 1)], [-(2**31), 2**31 - 1]):
        edge = np.array(edge, dtype=np.int64)
        assert np.array_equal(sp.decode(codec, sp.encode(codec, edge)), edge)
    for bad in ([2**40 + 5, -2**33], [0, 2**31], [-(2**31) - 1, 1]):
        with pytest.raises(QuantizerRangeError):
            sp.encode(codec, bad)


def test_roundtrip_property_random_packets(rng):
    train = [rng.integers(-30, 31, 10) for _ in range(500)]
    for scheme in ("dense", "sparse"):
        codec = _train(train, scheme)
        for _ in range(10_000 // 2):
            pkt = rng.integers(-60, 61, 10)  # wider than training: exercises escape
            enc = sp.encode(codec, pkt)
            assert np.array_equal(sp.decode(codec, enc), pkt)


@st.composite
def _length_table(draw):
    """A Kraft-valid length table over the escape plus up to 59 integers.

    Leaves of a binary tree are split at random, then some are dropped, so
    both complete (Kraft sum 1) and incomplete codes come out.
    """
    leaves = [1, 1]
    for pick in draw(st.lists(st.integers(0, 2**16), max_size=58)):
        depth = leaves.pop(pick % len(leaves))
        leaves += [depth + 1, depth + 1]
    keep = draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves)))
    leaves = [n for n, k in zip(leaves, keep) if k] or leaves[:1]
    symbols = draw(st.lists(st.integers(-40, 40), unique=True,
                            min_size=len(leaves) - 1, max_size=len(leaves) - 1))
    return dict(zip(symbols + [ESCAPE], draw(st.permutations(leaves))))


_INDEX = st.integers(-2**31, 2**31 - 1)


def _error(call):
    """(message, bit_offset) of the DecodeError call raises, None if it returns."""
    try:
        call()
    except DecodeError as exc:
        return str(exc), exc.bit_offset
    return None


_EDGES = st.sampled_from([-2**31, 2**31 - 1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(["dense", "sparse"]),
       N=st.sampled_from([2, 4, 6]))
def test_roundtrip_over_random_length_tables(data, scheme, N):
    # the integer codec must equal the '0'/'1' string codec bit for bit;
    # single-symbol alphabets (the escape alone) are drawn on purpose as well
    tables = st.one_of(_length_table(), st.integers(1, 3).map(lambda n: {ESCAPE: n}))
    coders = tuple(PositionCoder(position=p, lengths=data.draw(tables)) for p in range(N))
    codec = PacketCodec(N=N, quantizer=Quantizer(delta=0.001), coders=coders, scheme=scheme)
    ref = codec_reference(codec)
    # trained symbols, zeros, escapes at the raw field's edges and anywhere
    pkt = [data.draw(st.one_of(st.sampled_from(sorted(set(c.lengths) - {ESCAPE}) or [0]),
                               st.just(0), _EDGES, _INDEX)) for c in coders]
    if data.draw(st.booleans()):
        pkt[N // 2:] = [0] * (N - N // 2)  # an all-zero tail
    pkt = np.array(pkt, dtype=np.int64)
    enc = sp.encode(codec, pkt)
    bits = ref.encode(pkt)
    assert packet_bits(enc) == bits and enc.bit_count == len(bits)
    assert enc.to_hex() == ref.to_hex(bits)
    assert np.array_equal(sp.decode(codec, enc), ref.decode(bits))
    assert np.array_equal(ref.decode(bits), pkt)
    # a cut or lengthened stream fails with the reference's message and offset
    for cut in (data.draw(st.integers(0, len(bits) - 1)), len(bits) + 1):
        cut_bits = (bits + "0")[:cut]
        want = _error(lambda: ref.decode(cut_bits))
        assert want is not None
        assert _error(lambda: sp.decode(codec, packet_of_bits(cut_bits))) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(["dense", "sparse"]),
       N=st.sampled_from([2, 4, 6]), M=st.integers(1, 40), spread=st.integers(0, 4))
def test_train_codec_matches_counter_heap_reference(data, scheme, N, M, spread):
    # few distinct indices over few packets: frequencies tie heavily
    samples = data.draw(hnp.arrays(np.int64, (M, N), elements=st.integers(-spread, spread)))
    if data.draw(st.booleans()):
        samples = np.repeat(samples[: max(1, M // 4)], 4, axis=0)  # every count a multiple of 4
    codec = sp.train_codec(samples, scheme, Quantizer(delta=0.001))
    assert [c.lengths for c in codec.coders] == train_codec_reference(samples, scheme)


def test_codes_longer_than_64_bits_roundtrip():
    # a staircase code: lengths 1, 2, ..., 70 and the escape at 70
    lengths = {**{s: s + 1 for s in range(70)}, ESCAPE: 70}
    coder = PositionCoder(position=0, lengths=lengths)
    assert coder.longest == 70 and coder.starts[-1] == 2**70
    assert codewords(coder)[69] == "1" * 69 + "0" and codewords(coder)[ESCAPE] == "1" * 70
    codec = PacketCodec(N=2, quantizer=Quantizer(delta=0.001), coders=(coder, coder),
                        scheme="dense")
    for pkt in ([69, 68], [-5, 2**31 - 1], [0, 69]):
        pkt = np.array(pkt, dtype=np.int64)
        enc = sp.encode(codec, pkt)
        assert packet_bits(enc) == codec_reference(codec).encode(pkt)
        assert np.array_equal(sp.decode(codec, enc), pkt)


def test_packet_of_no_positions_roundtrips():
    codec = PacketCodec(N=0, quantizer=Quantizer(delta=0.001), coders=(), scheme="dense")
    enc = sp.encode(codec, np.zeros(0, dtype=np.int64))
    assert enc.bit_count == 0 and enc.to_hex() == ""
    assert sp.decode(codec, enc).shape == (0,)


def test_decode_malformed_raises_with_offset(rng):
    codec = _train([rng.integers(-3, 4, 6) for _ in range(50)], "dense")
    enc = sp.encode(codec, np.array([1, 2, 3, -1, 0, 2], dtype=np.int64))
    truncated = packet_of_bits(packet_bits(enc)[: enc.bit_count // 2])
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
    assert _kraft_sum(coder.lengths) <= 1.0 + 1e-12
    counts = {0: sum(s[0] == 0 for s in samples), 7: sum(s[0] == 7 for s in samples)}
    total = sum(counts.values())
    probs = np.array([c / total for c in counts.values()])
    entropy = float(-np.sum(probs * np.log2(probs)))
    mean_len = sum(counts[s] * coder.lengths[s] for s in counts) / total
    esc_overhead = coder.lengths[ESCAPE] / total  # pseudo-count share
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
    with pytest.raises(CodecTrainingError):  # Kraft sum 5/4
        PositionCoder(position=0, lengths={0: 1, 1: 2, ESCAPE: 1})
    with pytest.raises(CodecTrainingError):  # no escape symbol
        PositionCoder(position=0, lengths={0: 1, 1: 1})
    with pytest.raises(CodecTrainingError):  # an empty codeword
        PositionCoder(position=0, lengths={ESCAPE: 0})
