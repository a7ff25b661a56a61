"""Zlib-style DEFLATE (LZ77 family) with the paper's hash-chain gadget.

The compressor follows Zlib's ``deflate_slow`` (lazy matching over a
chained hash table), including the exact leaking computation of
Listing 1 / Fig. 2:

    ``UPDATE_HASH:  ins_h = ((ins_h << 5) ^ c) & 0x7fff``
    ``INSERT_STRING: prev[s & 0x7fff] = head[ins_h]; head[ins_h] = s``

Every input position is inserted exactly once, in order, so the sequence
of ``head[ins_h]`` accesses — observed at cache-line granularity — leaks
a sliding 3-byte xor of the input (25 % of the plaintext directly; all of
it for inputs with known high bits such as lowercase ASCII; see
:mod:`repro.recovery.zlib_recover`).

The emitted container is our own compact token format (literal /
length+distance), not byte-exact RFC 1951: the gadget lives in match
*finding*, which is structurally exact, while entropy coding is irrelevant
to the side channel (DESIGN.md).
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.compression.bitio import MSBBitReader, MSBBitWriter
from repro.exec.context import ExecutionContext, NativeContext
from repro.taint.value import value_of

MAGIC = b"ZD"
WSIZE = 1 << 15
WMASK = WSIZE - 1
HASH_SIZE = 1 << 15
HASH_MASK = HASH_SIZE - 1
H_SHIFT = 5
MIN_MATCH = 3
MAX_MATCH = 258
MAX_DIST = WSIZE
NIL = -1

MAX_CHAIN = 128
MAX_LAZY = 32
NICE_LENGTH = 128

SITE_HEAD = "deflate_slow/head[ins_h]"
SITE_PREV = "deflate_slow/prev[s & WMASK]"
SITE_WINDOW = "longest_match/window"
SITE_FREQ = "_tr_tally/dyn_ltree[c].Freq++"

MATCH_MARKER = 256  # entropy-coded symbol introducing a match token
ALPHA_SIZE = 257


class _Deflater:
    """One deflate run: hash-chain state plus token emission."""

    hash_bytes = MIN_MATCH  # bytes consumed by one hash insertion

    def __init__(self, data: bytes, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.n = len(data)
        self.window = ctx.array("window", max(self.n, 1), elem_size=1)
        self.head = ctx.array("head", HASH_SIZE, elem_size=2, init=NIL)
        self.prev = ctx.array("prev", WSIZE, elem_size=2, init=NIL)
        for i, b in enumerate(ctx.input_bytes(data)):
            self.window.set(i, b)
        self.ins_h = 0
        # zlib counts symbol frequencies as it tallies tokens
        # (_tr_tally): dyn_ltree[c].Freq++ is itself an input-dependent
        # access -- a second gadget in the same compressor.
        self.freq = ctx.array("dyn_ltree", ALPHA_SIZE, elem_size=4)
        self.tokens: list[tuple] = []

    # -- the leaking computation ---------------------------------------
    def prime(self) -> None:
        """Seed the rolling hash with the first two bytes, as zlib does:
        after this, inserting position s consumes window[s+2]."""
        if self.n >= 2:
            self.update_hash(self.window.get(0))
            self.update_hash(self.window.get(1))

    def update_hash(self, c) -> None:
        self.ins_h = ((self.ins_h << H_SHIFT) ^ c) & HASH_MASK

    def insert_string(self, s: int) -> int:
        """Insert the 3-byte string at position ``s``; return the head of
        its hash chain.  This is Listing 1: the ``head[ins_h]`` accesses
        are the gadget."""
        self.update_hash(self.window.get(s + MIN_MATCH - 1))
        hash_head = self.head.get(self.ins_h, site=SITE_HEAD)
        self.prev.set(s & WMASK, hash_head, site=SITE_PREV)
        self.head.set(self.ins_h, s, site=SITE_HEAD)
        return hash_head

    # -- match search ----------------------------------------------------
    def longest_match(self, strstart: int, cur_match: int, prev_length: int):
        """Walk the hash chain from ``cur_match`` looking for the longest
        match at ``strstart`` (zlib's longest_match, simplified)."""
        window, n = self.window, self.n
        best_len = prev_length
        best_start = NIL
        limit = strstart - MAX_DIST if strstart > MAX_DIST else -1
        chain_length = MAX_CHAIN
        max_possible = min(MAX_MATCH, n - strstart)

        while cur_match > limit and chain_length > 0:
            chain_length -= 1
            self.ctx.tick(2)
            # Quick rejection on the byte that would extend best_len.
            if best_len >= 1 and (
                strstart + best_len >= n
                or window.get(cur_match + best_len, site=SITE_WINDOW)
                != window.get(strstart + best_len, site=SITE_WINDOW)
            ):
                cur_match = value_of(self.prev.get(cur_match & WMASK))
                continue
            length = 0
            while (
                length < max_possible
                and window.get(cur_match + length, site=SITE_WINDOW)
                == window.get(strstart + length, site=SITE_WINDOW)
            ):
                length += 1
                self.ctx.tick(1)
            if length > best_len:
                best_len = length
                best_start = cur_match
                if length >= NICE_LENGTH or length >= max_possible:
                    break
            cur_match = value_of(self.prev.get(cur_match & WMASK))

        if best_start == NIL:
            return prev_length, NIL
        return best_len, best_start

    # -- token emission (zlib's _tr_tally) -------------------------------
    def emit_literal(self, b) -> None:
        self.freq.add(b, 1, site=SITE_FREQ)
        self.tokens.append(("lit", b))

    def emit_match(self, length: int, distance: int) -> None:
        self.freq.add(MATCH_MARKER, 1, site=SITE_FREQ)
        self.tokens.append(("match", length, distance))

    # -- entropy coding (zlib's compress_block) ---------------------------
    def flush_block(self) -> bytes:
        """Encode the tallied tokens: a dynamic canonical Huffman code
        over literals + the match marker when it pays for its table,
        otherwise fixed 9-bit coding (zlib's dynamic/static choice)."""
        from repro.compression.bzip2.huffman import HuffmanTable

        out = MSBBitWriter()
        freqs = self.freq.snapshot()
        total = sum(freqs)
        table = HuffmanTable.from_freqs(freqs)
        dynamic_bits = ALPHA_SIZE * 5 + sum(
            freqs[s] * table.lengths[s] for s in range(ALPHA_SIZE) if freqs[s]
        )
        fixed_bits = total * 9
        use_dynamic = dynamic_bits < fixed_bits

        out.write(1 if use_dynamic else 0, 1)
        if use_dynamic:
            table.write_lengths(out)

        def put_symbol(sym: int) -> None:
            if use_dynamic:
                table.encode(out, value_of(sym))
            else:
                out.write(sym, 9)

        for token in self.tokens:
            if token[0] == "lit":
                put_symbol(token[1])
            else:
                put_symbol(MATCH_MARKER)
                out.write(token[1] - MIN_MATCH, 8)
                out.write(token[2] - 1, 15)
        return out.getvalue()


def _run_deflater(d: "_Deflater", ctx: ExecutionContext) -> bytes:
    """The deflate_slow lazy-matching loop, shared by the zlib-style and
    Brotli-like match finders."""
    n = d.n
    d.prime()

    strstart = 0
    match_available = False
    match_length = MIN_MATCH - 1  # best match found at this position
    match_start = NIL

    while strstart < n:
        ctx.tick(2)
        hash_head = NIL
        if strstart + d.hash_bytes <= n:
            hash_head = value_of(d.insert_string(strstart))

        # Lazy evaluation: the previous position's match competes
        # with the one we are about to find here.
        prev_length, prev_match = match_length, match_start
        match_length, match_start = MIN_MATCH - 1, NIL
        if (
            hash_head != NIL
            and prev_length < MAX_LAZY
            and strstart - hash_head <= MAX_DIST
        ):
            match_length, match_start = d.longest_match(
                strstart, hash_head, MIN_MATCH - 1
            )
            if match_length < MIN_MATCH or match_start == NIL:
                match_length, match_start = MIN_MATCH - 1, NIL

        if prev_length >= MIN_MATCH and match_length <= prev_length:
            # The previous position's match wins: emit it and insert
            # all the positions it covers.
            d.emit_match(prev_length, (strstart - 1) - prev_match)
            for _ in range(prev_length - 2):  # strstart already done
                strstart += 1
                if strstart + d.hash_bytes <= n:
                    d.insert_string(strstart)
            strstart += 1
            match_available = False
            match_length, match_start = MIN_MATCH - 1, NIL
        elif match_available:
            d.emit_literal(d.window.get(strstart - 1))
            strstart += 1
        else:
            match_available = True
            strstart += 1

    if match_available:
        d.emit_literal(d.window.get(n - 1))

    return d.flush_block()


def deflate_compress(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    deflater: Callable[[bytes, ExecutionContext], _Deflater] = _Deflater,
    func_name: str = "deflate_slow",
) -> bytes:
    """Compress ``data`` with the zlib-style lazy-matching deflate.

    ``deflater(data, ctx)`` builds the match finder the one lazy-matching
    loop drives (the Brotli-like hasher, the Debreach guard, a
    mitigation's wrapped tables all plug in here), and ``func_name`` is
    the function the run is traced as; every variant shares this
    container framing.
    """
    if ctx is None:
        ctx = NativeContext()
    header = MAGIC + struct.pack("<I", len(data))
    if not data:
        return header
    with ctx.func(func_name):
        body = _run_deflater(deflater(data, ctx), ctx)
    return header + body


def deflate_decompress(blob: bytes) -> bytes:
    """Invert :func:`deflate_compress` (and the Brotli-like variant)."""
    from repro.compression.bzip2.huffman import HuffmanTable

    if blob[:2] != MAGIC:
        raise ValueError("bad deflate magic")
    (n,) = struct.unpack("<I", blob[2:6])
    if n == 0:
        return b""
    reader = MSBBitReader(blob[6:])
    decoder = None
    if reader.read(1):  # dynamic-code block
        decoder = HuffmanTable.read_lengths(reader, ALPHA_SIZE).decoder()

    def get_symbol() -> int:
        if decoder is not None:
            return decoder.decode(reader)
        return reader.read(9)

    out = bytearray()
    while len(out) < n:
        sym = get_symbol()
        if sym == MATCH_MARKER:
            length = reader.read(8) + MIN_MATCH
            distance = reader.read(15) + 1
            if distance > len(out):
                raise ValueError("distance past start of output")
            start = len(out) - distance
            for k in range(length):  # byte-wise: matches may overlap
                out.append(out[start + k])
        elif sym > 255:
            raise ValueError(f"invalid literal symbol {sym}")
        else:
            out.append(sym)
    return bytes(out)
