"""Uniform scalar quantization plus per-position canonical Huffman coding.

Both packet schemes share one layout: a head of leading positions is coded
unconditionally, the rest by a presence bitmap followed by codes for the
flagged (nonzero-index) positions only. A scheme fixes only the head: all
N positions for dense (an empty bitmap), the first N/2 for sparse. Indices
never seen in training are carried by an escape codeword followed by a
32-bit raw index, so every in-range packet round-trips exactly. A
position's code is its table of code lengths; the codewords follow from it
canonically.
"""

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (CodecTrainingError, ConfigError, DecodeError,
                     QuantizerRangeError)
from .linalg import finite_real, number_array, shown

# Escape symbol key; distinct from every integer quantizer index.
ESCAPE = "esc"
ESCAPE_RAW_BITS = 32
_INDEX_LIMIT = 2**31 - 1

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
    idx = np.rint(u / q.delta)
    if np.any(np.abs(idx) > _INDEX_LIMIT):
        raise QuantizerRangeError("packet value exceeds the 32-bit index range")
    return idx.astype(np.int64)


def dequantize(q: Quantizer, indices: np.ndarray) -> np.ndarray:
    return np.asarray(indices, dtype=np.int64) * q.delta


def _symbol_order(symbols) -> list:
    """Integers ascending, then the escape symbol if present."""
    ints = sorted(s for s in symbols if s != ESCAPE)
    return ints + [ESCAPE] if ESCAPE in symbols else ints


def _code_lengths(freqs: dict) -> dict:
    """Deterministic Huffman code lengths for symbol -> frequency.

    Leaves enter the heap in symbol order and merges pop the two smallest
    (frequency, order) entries, so the lengths are reproducible. A symbol's
    length is the number of merges above its leaf. A single-symbol alphabet
    gets length 1 to keep the stream self-delimiting.
    """
    if not freqs:
        raise CodecTrainingError("cannot build a code over an empty alphabet")
    symbols = _symbol_order(freqs)
    n = len(symbols)
    if n == 1:
        return {symbols[0]: 1}
    # Node ids double as the merge order: leaves 0..n-1, merges n..2n-2.
    heap = [(freqs[sym], node) for node, sym in enumerate(symbols)]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        fa, a = heapq.heappop(heap)
        fb, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (fa + fb, node))
    # A parent's id exceeds its children's, so one downward pass suffices.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return {sym: depth[node] for node, sym in enumerate(symbols)}


@dataclass(frozen=True)
class PositionCoder:
    """Canonical prefix code for one packet position, with an escape fallback.

    lengths maps every symbol to its code length, and is the whole code:
    symbols sorted by (length, symbol order) take consecutive integer
    codewords, shifted left whenever the length grows (Moffat & Turpin,
    1997). codebook holds the resulting symbol -> bitstring map.
    """

    position: int
    lengths: dict

    def __post_init__(self):
        if ESCAPE not in self.lengths:
            raise CodecTrainingError(f"position {self.position}: code lacks an escape symbol")
        if min(self.lengths.values()) < 1:
            raise CodecTrainingError(f"position {self.position}: code lengths must be >= 1")
        longest = max(self.lengths.values())
        if sum(2 ** (longest - n) for n in self.lengths.values()) > 2 ** longest:
            raise CodecTrainingError(f"position {self.position}: Kraft inequality violated")
        codebook = {}
        code = width = 0
        # a stable sort by length keeps symbol order within each length
        for sym in sorted(_symbol_order(self.lengths), key=self.lengths.__getitem__):
            code <<= self.lengths[sym] - width
            width = self.lengths[sym]
            codebook[sym] = format(code, "b").zfill(width)
            code += 1
        object.__setattr__(self, "codebook", codebook)
        object.__setattr__(self, "_decode", {w: s for s, w in codebook.items()})
        object.__setattr__(self, "_max_len", longest)

    def encode_index(self, idx: int) -> str:
        idx = int(idx)
        # the raw field is 32-bit two's complement; reject what would wrap
        if not -2 ** (ESCAPE_RAW_BITS - 1) <= idx < 2 ** (ESCAPE_RAW_BITS - 1):
            raise QuantizerRangeError(f"index {idx} exceeds the 32-bit index range")
        word = self.codebook.get(idx)
        if word is not None:
            return word
        # Two's-complement raw index after the escape marker.
        return self.codebook[ESCAPE] + format(idx & 0xFFFFFFFF, f"0{ESCAPE_RAW_BITS}b")


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
    """One encoded packet as a '0'/'1' string."""

    bits: str

    @property
    def bit_count(self) -> int:
        return len(self.bits)

    def to_hex(self) -> str:
        """Hex dump, zero-padded to whole bytes (bit_count disambiguates)."""
        padded = self.bits + "0" * (-len(self.bits) % 8)
        return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)).hex()


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
        freqs = {int(s): int(c) for s, c in Counter(col.tolist()).items()}
        freqs[ESCAPE] = 1
        coders.append(PositionCoder(position=p, lengths=_code_lengths(freqs)))
    return PacketCodec(N=N, quantizer=quantizer, coders=tuple(coders), scheme=scheme)


def encode(codec: PacketCodec, indices: np.ndarray) -> EncodedPacket:
    """Encode one quantized packet (vector of integer indices)."""
    idx = number_array(indices, "packet indices", "iu")
    if idx.shape != (codec.N,):
        raise ConfigError(f"packet must have shape ({codec.N},), got {idx.shape}")
    head = _head(codec.scheme, codec.N)
    tail = range(head, codec.N)
    coded = "".join(codec.coders[p].encode_index(idx[p]) for p in range(head))
    bitmap = "".join("1" if idx[p] != 0 else "0" for p in tail)
    flagged = "".join(codec.coders[p].encode_index(idx[p]) for p in tail if idx[p] != 0)
    return EncodedPacket(bits=coded + bitmap + flagged)


def _read_symbol(coder: PositionCoder, bits: str, pos: int):
    """Decode one symbol starting at bit offset pos; returns (index, next pos)."""
    decode = coder._decode
    end = min(len(bits), pos + coder._max_len)
    j = pos
    sym = None
    while j < end:
        j += 1
        sym = decode.get(bits[pos:j])
        if sym is not None:
            break
    if sym is None:
        raise DecodeError("no codeword matches the stream", bit_offset=pos)
    if sym == ESCAPE:
        raw_end = j + ESCAPE_RAW_BITS
        if raw_end > len(bits):
            raise DecodeError("escape raw field runs past the end", bit_offset=j)
        raw = int(bits[j:raw_end], 2)
        if raw >= 2 ** (ESCAPE_RAW_BITS - 1):
            raw -= 2 ** ESCAPE_RAW_BITS
        return raw, raw_end
    return int(sym), j


def decode(codec: PacketCodec, enc: EncodedPacket) -> np.ndarray:
    """Exact inverse of encode(); returns the integer index vector."""
    bits = enc.bits
    idx = np.zeros(codec.N, dtype=np.int64)
    pos = 0
    head = _head(codec.scheme, codec.N)
    for p in range(head):
        idx[p], pos = _read_symbol(codec.coders[p], bits, pos)
    width = codec.N - head
    if pos + width > len(bits):
        raise DecodeError("bitmap runs past the end", bit_offset=pos)
    bitmap = bits[pos:pos + width]
    pos += width
    for p, flag in zip(range(head, codec.N), bitmap):
        if flag == "1":
            idx[p], pos = _read_symbol(codec.coders[p], bits, pos)
    if pos != len(bits):
        raise DecodeError(f"{len(bits) - pos} unread bits after the last symbol",
                          bit_offset=pos)
    return idx


def codec_to_dict(codec: PacketCodec) -> dict:
    """JSON-ready form: per position, the code length of every symbol."""
    return {
        "N": codec.N,
        "scheme": codec.scheme,
        "delta": codec.quantizer.delta,
        "coders": [
            {
                "position": c.position,
                "lengths": {str(s): n for s, n in c.lengths.items()},
            }
            for c in codec.coders
        ],
    }
