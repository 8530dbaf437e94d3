"""Uniform scalar quantization plus per-position Huffman coding of packets.

Two packet schemes are supported. dense: every one of the N positions is
entropy-coded. sparse: the first N/2 positions are coded unconditionally,
the second half is signaled by an N/2-bit presence bitmap followed by codes
for the flagged (nonzero-index) positions only. Indices never seen in
training are carried by an escape codeword followed by a 32-bit raw index,
so every in-range packet round-trips exactly.
"""

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (CodecTrainingError, ConfigError, DecodeError,
                     QuantizerRangeError)

# Escape symbol key; distinct from every integer quantizer index.
ESCAPE = "esc"
ESCAPE_RAW_BITS = 32
_INDEX_LIMIT = 2**31 - 1

_SCHEMES = ("sparse", "dense")


@dataclass(frozen=True)
class Quantizer:
    """Mid-tread uniform quantizer: reconstruction levels include exact zero."""

    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise ConfigError(f"quantizer step must be positive, got {self.delta}")


def quantize_packet(q: Quantizer, u: np.ndarray) -> np.ndarray:
    """Round every entry to the nearest level (ties to even); int64 indices.

    u may have any shape: one packet, or a stack of recorded packets.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise QuantizerRangeError("cannot quantize non-finite packet")
    idx = np.rint(u / q.delta)
    if np.any(np.abs(idx) > _INDEX_LIMIT):
        raise QuantizerRangeError("packet value exceeds the 32-bit index range")
    return idx.astype(np.int64)


def dequantize(q: Quantizer, indices: np.ndarray) -> np.ndarray:
    return np.asarray(indices, dtype=np.int64) * q.delta


def _huffman_codebook(freqs: dict) -> dict:
    """Deterministic Huffman code for symbol -> frequency.

    Leaves enter the heap in sorted symbol order (integers ascending, the
    escape symbol last) and merges pop the two smallest (frequency, order)
    entries, so the codebook is reproducible. A single-symbol alphabet gets
    the 1-bit code "0" to keep the stream self-delimiting.
    """
    if not freqs:
        raise CodecTrainingError("cannot build a code over an empty alphabet")
    symbols = sorted((s for s in freqs if s != ESCAPE)) + ([ESCAPE] if ESCAPE in freqs else [])
    if len(symbols) == 1:
        return {symbols[0]: "0"}
    heap = []
    order = 0
    for sym in symbols:
        heapq.heappush(heap, (freqs[sym], order, sym))
        order += 1
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, order, (a, b)))
        order += 1
    codebook = {}

    def walk(node, prefix):
        if isinstance(node, tuple):
            walk(node[0], prefix + "0")
            walk(node[1], prefix + "1")
        else:
            codebook[node] = prefix

    walk(heap[0][2], "")
    return codebook


@dataclass(frozen=True)
class PositionCoder:
    """Prefix code for one packet position, with an escape fallback."""

    position: int
    codebook: dict
    escape_bits: int = ESCAPE_RAW_BITS

    def __post_init__(self):
        if ESCAPE not in self.codebook:
            raise CodecTrainingError(f"position {self.position}: codebook lacks an escape symbol")
        words = sorted(self.codebook.values())
        if len(set(words)) != len(words):
            raise CodecTrainingError(f"position {self.position}: duplicate codewords")
        # In sorted order a prefix lands immediately before a word it prefixes.
        for w, nxt in zip(words, words[1:]):
            if nxt.startswith(w):
                raise CodecTrainingError(
                    f"position {self.position}: codeword {w} prefixes {nxt}")
        if sum(2.0 ** -len(w) for w in words) > 1.0 + 1e-12:
            raise CodecTrainingError(f"position {self.position}: Kraft inequality violated")
        object.__setattr__(self, "_decode", {w: s for s, w in self.codebook.items()})
        object.__setattr__(self, "_max_len", max(len(w) for w in words))

    def kraft_sum(self) -> float:
        return sum(2.0 ** -len(w) for w in self.codebook.values())

    def encode_index(self, idx: int) -> str:
        word = self.codebook.get(int(idx))
        if word is not None:
            return word
        # Two's-complement raw index after the escape marker.
        return self.codebook[ESCAPE] + format(int(idx) & 0xFFFFFFFF, f"0{self.escape_bits}b")


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
    """Bitstring plus its length; bitmap is the sparse-scheme presence field."""

    bits: str
    bit_count: int
    bitmap: str = None

    def __post_init__(self):
        if self.bit_count != len(self.bits):
            raise ConfigError("bit_count must equal the bitstring length")

    def to_hex(self) -> str:
        """Hex dump, zero-padded to whole bytes (bit_count disambiguates)."""
        padded = self.bits + "0" * (-len(self.bits) % 8)
        return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)).hex()


def train_codec(samples, scheme: str, quantizer: Quantizer) -> PacketCodec:
    """Fit per-position Huffman coders to quantized packets.

    samples is an iterable of integer index vectors of a common length N.
    For the sparse scheme, positions >= N/2 are trained on their nonzero
    indices only (zeros travel in the bitmap). Every position gets an
    escape symbol with pseudo-count 1 so unseen indices stay encodable.
    """
    mat = np.asarray(list(samples), dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise CodecTrainingError("training requires at least one packet")
    N = mat.shape[1]
    if scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    if scheme == "sparse" and N % 2 != 0:
        raise ConfigError("sparse scheme requires an even packet length")

    coders = []
    for p in range(N):
        col = mat[:, p]
        if scheme == "sparse" and p >= N // 2:
            col = col[col != 0]
        freqs = {int(s): int(c) for s, c in Counter(col.tolist()).items()}
        freqs[ESCAPE] = 1
        coders.append(PositionCoder(position=p, codebook=_huffman_codebook(freqs)))
    return PacketCodec(N=N, quantizer=quantizer, coders=tuple(coders), scheme=scheme)


def encode(codec: PacketCodec, indices: np.ndarray) -> EncodedPacket:
    """Encode one quantized packet (vector of integer indices)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (codec.N,):
        raise ConfigError(f"packet must have shape ({codec.N},), got {idx.shape}")
    if codec.scheme == "dense":
        bits = "".join(codec.coders[p].encode_index(idx[p]) for p in range(codec.N))
        return EncodedPacket(bits=bits, bit_count=len(bits))
    half = codec.N // 2
    head = "".join(codec.coders[p].encode_index(idx[p]) for p in range(half))
    bitmap = "".join("1" if idx[p] != 0 else "0" for p in range(half, codec.N))
    tail = "".join(codec.coders[p].encode_index(idx[p])
                   for p in range(half, codec.N) if idx[p] != 0)
    bits = head + bitmap + tail
    return EncodedPacket(bits=bits, bit_count=len(bits), bitmap=bitmap)


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
        raw_end = j + coder.escape_bits
        if raw_end > len(bits):
            raise DecodeError("escape raw field runs past the end", bit_offset=j)
        raw = int(bits[j:raw_end], 2)
        if raw >= 2 ** (coder.escape_bits - 1):
            raw -= 2 ** coder.escape_bits
        return raw, raw_end
    return int(sym), j


def decode(codec: PacketCodec, enc: EncodedPacket) -> np.ndarray:
    """Exact inverse of encode(); returns the integer index vector."""
    bits = enc.bits
    idx = np.zeros(codec.N, dtype=np.int64)
    pos = 0
    if codec.scheme == "dense":
        for p in range(codec.N):
            idx[p], pos = _read_symbol(codec.coders[p], bits, pos)
    else:
        half = codec.N // 2
        for p in range(half):
            idx[p], pos = _read_symbol(codec.coders[p], bits, pos)
        if pos + half > len(bits):
            raise DecodeError("bitmap runs past the end", bit_offset=pos)
        bitmap = bits[pos:pos + half]
        pos += half
        for p, flag in zip(range(half, codec.N), bitmap):
            if flag == "1":
                idx[p], pos = _read_symbol(codec.coders[p], bits, pos)
    if pos != len(bits):
        raise DecodeError(f"{len(bits) - pos} unread bits after the last symbol",
                          bit_offset=pos)
    return idx


def codec_to_dict(codec: PacketCodec) -> dict:
    """JSON-ready form: codebooks as symbol-string -> bitstring maps."""
    return {
        "N": codec.N,
        "scheme": codec.scheme,
        "delta": codec.quantizer.delta,
        "coders": [
            {
                "position": c.position,
                "escape_bits": c.escape_bits,
                "codebook": {str(s): w for s, w in c.codebook.items()},
            }
            for c in codec.coders
        ],
    }


def codec_from_dict(doc: dict) -> PacketCodec:
    try:
        coders = tuple(
            PositionCoder(
                position=int(c["position"]),
                codebook={(s if s == ESCAPE else int(s)): w
                          for s, w in c["codebook"].items()},
                escape_bits=int(c.get("escape_bits", ESCAPE_RAW_BITS)),
            )
            for c in doc["coders"]
        )
        return PacketCodec(N=int(doc["N"]), quantizer=Quantizer(delta=float(doc["delta"])),
                           coders=coders, scheme=doc["scheme"])
    except KeyError as exc:
        raise ConfigError(f"codec document is missing field {exc}") from exc
