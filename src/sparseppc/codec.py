"""Uniform scalar quantization plus per-position canonical Huffman coding.

Both packet schemes share one layout: a head of leading positions is coded
unconditionally, the rest by a presence bitmap followed by codes for the
flagged (nonzero-index) positions only. A scheme fixes only the head: all
N positions for dense (an empty bitmap), the first N/2 for sparse. Indices
never seen in training are carried by an escape codeword followed by a
32-bit raw index, so every in-range packet round-trips exactly.

A position's code is its table of code lengths (np.unique counts, then
two-queue Huffman merges); its codewords and the decoder's canonical start
table follow from it as integers. An encoded packet is bytes plus a bit
count. encode and decode take one packet each, so a tracer can pair every
decode with the encode just before it. bit_account splits encode's bits
over a stack of packets by field, reading each coder's lengths.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (CodecTrainingError, ConfigError, DecodeError,
                     QuantizerRangeError)
from .linalg import finite_real, number_array, shown

# Escape symbol key; distinct from every integer quantizer index.
ESCAPE = "esc"
ESCAPE_RAW_BITS = 32
_RAW_HALF = 1 << ESCAPE_RAW_BITS - 1
_RAW_MASK = (1 << ESCAPE_RAW_BITS) - 1

_SCHEMES = ("sparse", "dense")


def _head(scheme: str, N: int) -> int:
    """How many leading positions a scheme codes unconditionally."""
    return N if scheme == "dense" else N // 2


@dataclass(frozen=True)
class Quantizer:
    """Mid-tread uniform quantizer: reconstruction levels include exact zero."""

    delta: float

    def __post_init__(self):
        if not (finite_real(self.delta) and self.delta > 0.0):
            raise ConfigError(f"quantizer step must be finite and > 0, got {shown(self.delta)}")


def quantize_packet(q: Quantizer, u: np.ndarray) -> np.ndarray:
    """Round every entry to the nearest level (ties to even); int64 indices.

    u may have any shape: one packet, or a stack of recorded packets.
    """
    u = number_array(u, "packet").astype(float, copy=False)
    if not np.all(np.isfinite(u)):
        raise QuantizerRangeError("cannot quantize non-finite packet")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        idx = np.rint(u / q.delta)
    if np.any(np.abs(idx) >= _RAW_HALF):
        raise QuantizerRangeError("packet value exceeds the 32-bit index range")
    return idx.astype(np.int64)


def dequantize(q: Quantizer, indices: np.ndarray) -> np.ndarray:
    return np.asarray(indices, dtype=np.int64) * q.delta


def _symbol_order(symbols) -> list:
    """Integers ascending, then the escape symbol if present."""
    ints = sorted(s for s in symbols if s != ESCAPE)
    return ints + [ESCAPE] if ESCAPE in symbols else ints


def _code_lengths(weights) -> list:
    """Deterministic Huffman code lengths for leaf weights given in symbol order.

    Each merge takes the two smallest (weight, node id) nodes, so the
    lengths are reproducible. Merged weights never decrease, so two FIFO
    queues do a heap's work (van Leeuwen, 1976): leaves sorted by
    (weight, id), then merges as made; on a tie the leaf goes first. A
    symbol's length is the number of merges above its leaf; a lone symbol
    gets length 1 to keep the stream self-delimiting. Returns one length per
    weight, in the weights' order.
    """
    n = len(weights)
    if not n:
        raise CodecTrainingError("cannot build a code over an empty alphabet")
    if n == 1:
        return [1]
    # Node ids double as the merge order: leaves 0..n-1, merges n..2n-2.
    leaves = np.argsort(weights, kind="stable").tolist()  # ties by id
    weight = np.asarray(weights).tolist() + [0] * (n - 1)
    parent = [0] * (2 * n - 1)
    leaf, merge = 0, n  # heads of the two queues
    for node in range(n, 2 * n - 1):
        for _ in range(2):
            if leaf < n and (merge == node or weight[leaves[leaf]] <= weight[merge]):
                child, leaf = leaves[leaf], leaf + 1
            else:
                child, merge = merge, merge + 1
            parent[child] = node
            weight[node] += weight[child]
    # A parent's id exceeds its children's, so one downward pass suffices.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


@dataclass(frozen=True)
class PositionCoder:
    """Canonical prefix code for one packet position, with an escape fallback.

    lengths maps every symbol to its code length and is the whole code:
    sorted by (length, symbol order), in canonical's (symbol, length) pairs,
    symbols take consecutive codewords, shifted left as the length grows
    (Moffat & Turpin, 1997). Left-justified to the longest length, they are
    the Kraft partial sums in starts (Python ints, exact at any length),
    which ends with their total; codes maps symbol -> (codeword, length).
    """

    position: int
    lengths: dict

    def __post_init__(self):
        if ESCAPE not in self.lengths:
            raise CodecTrainingError(f"position {self.position}: code lacks an escape symbol")
        if min(self.lengths.values()) < 1:
            raise CodecTrainingError(f"position {self.position}: code lengths must be >= 1")
        longest = max(self.lengths.values())
        # a stable sort by length keeps symbol order within each length
        canonical = [(sym, self.lengths[sym]) for sym in
                     sorted(_symbol_order(self.lengths), key=self.lengths.__getitem__)]
        starts = list(accumulate((1 << longest - n for _, n in canonical), initial=0))
        if starts[-1] > 1 << longest:
            raise CodecTrainingError(f"position {self.position}: Kraft inequality violated")
        codes = {sym: (start >> longest - n, n) for (sym, n), start in zip(canonical, starts)}
        vars(self).update(codes=codes, starts=starts, canonical=canonical, longest=longest)


@dataclass(frozen=True)
class PacketCodec:
    N: int
    quantizer: Quantizer
    coders: tuple
    scheme: str

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.scheme == "sparse" and self.N % 2 != 0:
            raise ConfigError("sparse scheme requires an even packet length")
        if len(self.coders) != self.N:
            raise ConfigError(f"expected {self.N} position coders, got {len(self.coders)}")
        object.__setattr__(self, "coders", tuple(self.coders))


@dataclass(frozen=True)
class EncodedPacket:
    """bit_count bits, big-endian in data and zero-padded to whole bytes."""

    data: bytes
    bit_count: int

    def to_hex(self) -> str:
        """Hex dump of data (bit_count disambiguates the padding)."""
        return self.data.hex()


def train_codec(samples, scheme: str, quantizer: Quantizer) -> PacketCodec:
    """Fit per-position Huffman code lengths to quantized packets.

    samples is an (M, N) integer index array, or a list of M index vectors
    of a common length N >= 1 (else CodecTrainingError), integers only.
    Positions past the scheme's head are trained on their nonzero indices
    only (zeros travel in the bitmap). Every position gets an escape symbol
    with pseudo-count 1 so unseen indices stay encodable.
    """
    mat = number_array(samples, "training samples")
    if mat.ndim != 2 or 0 in mat.shape:
        raise CodecTrainingError("training requires at least one packet")
    mat = number_array(mat, "training samples", "iu")
    N = mat.shape[1]
    head = _head(scheme, N)
    coders = []
    for p in range(N):
        col = mat[:, p]
        if p >= head:
            col = col[col != 0]
        symbols, counts = np.unique(col, return_counts=True)
        # np.unique sorts the symbols, so the escape's weight goes last
        lengths = _code_lengths(np.append(counts, 1))
        coders.append(PositionCoder(position=p, lengths=dict(zip(symbols.tolist() + [ESCAPE],
                                                                     lengths))))
    return PacketCodec(N=N, quantizer=quantizer, coders=tuple(coders), scheme=scheme)


def _escape_word(coder: PositionCoder, idx: int) -> tuple:
    """The escape codeword followed by idx as a 32-bit two's-complement field."""
    code, n = coder.codes[ESCAPE]
    return code << ESCAPE_RAW_BITS | idx & _RAW_MASK, n + ESCAPE_RAW_BITS


def encode(codec: PacketCodec, indices: np.ndarray) -> EncodedPacket:
    """Encode one quantized packet (vector of integer indices).

    An index outside the escape's 32-bit two's-complement field raises
    QuantizerRangeError instead of wrapping; quantize_packet yields none.
    """
    idx = number_array(indices, "packet indices", "iu")
    if idx.shape != (codec.N,):
        raise ConfigError(f"packet must have shape ({codec.N},), got {idx.shape}")
    vals = idx.tolist()
    # the raw field is 32-bit two's complement; reject what would wrap
    for v in (min(vals, default=0), max(vals, default=0)):
        if not -_RAW_HALF <= v < _RAW_HALF:
            raise QuantizerRangeError(f"index {v} exceeds the 32-bit index range")
    head = _head(codec.scheme, codec.N)
    tail = vals[head:]
    words = [c.codes.get(v) or _escape_word(c, v) for c, v in zip(codec.coders, vals)]
    # head codewords, one bitmap bit per tail position, flagged codewords
    words = (words[:head] + [(v != 0, 1) for v in tail]
             + [w for w, v in zip(words[head:], tail) if v])
    acc = bit_count = 0
    for code, n in words:
        acc = acc << n | code
        bit_count += n
    pad = -bit_count % 8
    return EncodedPacket((acc << pad).to_bytes((bit_count + pad) // 8, "big"), bit_count)


def _read_symbol(coder: PositionCoder, acc: int, bit_count: int, pos: int):
    """(index, next pos) of the symbol at bit offset pos of the bit_count-bit stream acc."""
    # its codeword is the start below the next longest bits, zero-padded past the end
    rest = bit_count - pos
    window = (acc << coder.longest) >> rest & (1 << coder.longest) - 1
    i = bisect_right(coder.starts, window) - 1
    if i == len(coder.canonical) or coder.canonical[i][1] > rest:
        raise DecodeError("no codeword matches the stream", bit_offset=pos)
    sym, n = coder.canonical[i]
    pos += n
    if sym != ESCAPE:
        return sym, pos
    if pos + ESCAPE_RAW_BITS > bit_count:
        raise DecodeError("escape raw field runs past the end", bit_offset=pos)
    raw = acc >> bit_count - pos - ESCAPE_RAW_BITS & _RAW_MASK
    return raw - ((raw & _RAW_HALF) << 1), pos + ESCAPE_RAW_BITS


def decode(codec: PacketCodec, enc: EncodedPacket) -> np.ndarray:
    """Exact inverse of encode(); returns the integer index vector.

    data that is not bytes, or a bit_count that is not an int filling data
    to within 7 pad bits, raises DecodeError at bit_offset 0; pad bits that
    are not zero raise it at bit_offset = bit_count.
    """
    data, bit_count = enc.data, enc.bit_count
    if not (isinstance(data, bytes) and isinstance(bit_count, int)
            and 0 <= bit_count <= 8 * len(data) < bit_count + 8):
        raise DecodeError(f"{shown(bit_count)} bits in {shown(data)} is not a padded packet",
                          bit_offset=0)
    acc, pad = divmod(int.from_bytes(data, "big"), 1 << 8 * len(data) - bit_count)
    if pad:
        raise DecodeError("pad bits after the packet are not zero", bit_offset=bit_count)
    idx, pos, head = [0] * codec.N, 0, _head(codec.scheme, codec.N)
    for p in range(head):
        idx[p], pos = _read_symbol(codec.coders[p], acc, bit_count, pos)
    if pos + codec.N - head > bit_count:
        raise DecodeError("bitmap runs past the end", bit_offset=pos)
    pos += codec.N - head
    bitmap = acc >> bit_count - pos
    for p in range(head, codec.N):
        if bitmap >> codec.N - 1 - p & 1:
            idx[p], pos = _read_symbol(codec.coders[p], acc, bit_count, pos)
    if pos != bit_count:
        raise DecodeError(f"{bit_count - pos} unread bits after the last symbol", bit_offset=pos)
    return np.array(idx, dtype=np.int64)


# bit_account keys index v of position p as p << _KEY_SHIFT plus v: the
# 32-bit index range keeps the positions apart.
_KEY_SHIFT = ESCAPE_RAW_BITS + 1


def bit_account(codec: PacketCodec, indices: np.ndarray) -> dict:
    """Mean bits per packet that encode spends on a stack of index packets, by field.

    indices is (..., N) integer packets, at least one (else ConfigError),
    each index in the escape's 32-bit range (else QuantizerRangeError).
    bitmap counts the flag bits, codewords the value codewords of the
    indices the code knows, and escapes the escape codeword plus 32 raw
    bits of each index it does not; the three add up to the mean of
    encode's bit counts. entropy lists each position's empirical entropy,
    in bits per packet, of the indices it codes (past the head only the
    nonzero ones, so weighted by their share), and bound is their sum plus
    bitmap: what an ideal per-position code of these packets would spend.
    Each distinct coded (position, index) is looked up once, in that
    position coder's lengths.
    """
    idx = number_array(indices, "packet indices", "iu")
    if idx.ndim == 0 or idx.shape[-1] != codec.N or not idx.size:
        raise ConfigError(f"packets must have shape (..., {codec.N}), at least one, "
                          f"got {idx.shape}")
    if not (-_RAW_HALF <= idx.min() and idx.max() < _RAW_HALF):
        raise QuantizerRangeError("an index exceeds the 32-bit index range")
    idx = idx.astype(np.int64).reshape(-1, codec.N)
    head = _head(codec.scheme, codec.N)
    coded = np.ones(idx.shape, dtype=bool)
    coded[:, head:] = idx[:, head:] != 0
    distinct, freq = np.unique((idx + (np.arange(codec.N) << _KEY_SHIFT))[coded],
                               return_counts=True)
    where = (distinct + 2 * _RAW_HALF) >> _KEY_SHIFT    # each key's position
    # each key's code length, 0 where its coder lacks the index (an escape)
    lengths = np.array([codec.coders[p].lengths.get(v, 0) for p, v in
                        zip(where.tolist(), (distinct - (where << _KEY_SHIFT)).tolist())])
    escaped = lengths == 0
    escape = np.array([c.lengths[ESCAPE] + ESCAPE_RAW_BITS for c in codec.coders])
    info = -freq * np.log2(freq / np.count_nonzero(coded, axis=0)[where])
    count = len(idx)
    entropy = (np.bincount(where, weights=info, minlength=codec.N) / count).tolist()
    bitmap = codec.N - head
    return {"bitmap": float(bitmap),
            "codewords": int(freq @ lengths) / count,
            "escapes": int(freq[escaped] @ escape[where[escaped]]) / count,
            "entropy": entropy, "bound": sum(entropy) + bitmap}


def codec_to_dict(codec: PacketCodec) -> dict:
    """JSON-ready form: per position, the code length of every symbol."""
    coders = [{"position": c.position, "lengths": {str(s): n for s, n in c.lengths.items()}}
              for c in codec.coders]
    return {"N": codec.N, "scheme": codec.scheme, "delta": codec.quantizer.delta, "coders": coders}
