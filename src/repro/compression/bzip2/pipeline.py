"""The full Bzip2-style pipeline and container framing.

``bzip2_compress`` splits the RLE1 output into blocks of
``BLOCK_SIZE`` = 10,000 bytes (the paper's Section VI block size) and
runs each through BWT -> MTF/RLE2 -> Huffman.  ``bzip2_decompress``
inverts every stage.  The per-block sorting *path* taken
(mainSort / mainSort+fallbackSort / fallbackSort) is what the
fingerprinting attack of Section VI classifies; it is returned by
:func:`bzip2_compress_with_paths` for ground truth in tests.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.compression.bitio import MSBBitReader, MSBBitWriter
from repro.compression.bzip2.blocksort import (
    DEFAULT_WORK_FACTOR,
    HistogramFn,
    block_sort,
)
from repro.compression.bzip2.huffman import HuffmanTable
from repro.compression.bzip2.multihuffman import decode_stream, encode_stream
from repro.compression.bzip2.mtf import mtf_rle2_decode, mtf_rle2_encode
from repro.compression.bzip2.rle import rle1_decode, rle1_encode
from repro.exec.context import ExecutionContext, NativeContext
from repro.taint.value import value_of

MAGIC = b"RBZ1"
BLOCK_SIZE = 10_000  # the paper's block size (Section VI)
BLOCK_MARKER = 0x31
END_MARKER = 0x17


def _compress_block(
    ctx: ExecutionContext,
    chunk: list,
    block_index: int,
    work_factor: int,
    full_block_size: int,
    multi_huffman: bool,
    histogram_fn: Optional[HistogramFn] = None,
) -> tuple[bytes, str]:
    """BWT + MTF + Huffman for one block; returns (payload, sort path)."""
    n = len(chunk)
    block = ctx.array(f"block", n, elem_size=1)
    for i, v in enumerate(chunk):
        block.set(i, v)

    ptr, path = block_sort(
        ctx, block, n, full_block_size, work_factor, histogram_fn=histogram_fn
    )
    values = block.snapshot()
    last = [values[(p + n - 1) % n] for p in ptr]
    orig_ptr = ptr.index(0)
    if orig_ptr >= 1 << 24:
        raise ValueError(f"orig_ptr {orig_ptr} does not fit its 24-bit field")
    ctx.tick(n)

    symbols, in_use = mtf_rle2_encode(last)
    ctx.tick(len(symbols))
    n_symbols = sum(in_use) + 2

    out = MSBBitWriter()
    out.write(orig_ptr, 24)
    for used in in_use:
        out.write(1 if used else 0, 1)
    out.write(1 if multi_huffman else 0, 1)  # coding-scheme flag
    if multi_huffman:
        encode_stream(out, symbols, n_symbols)
        ctx.tick(len(symbols))
    else:
        freqs = [0] * n_symbols
        for s in symbols:
            freqs[s] += 1
        table = HuffmanTable.from_freqs(freqs)
        table.write_lengths(out)
        for s in symbols:
            table.encode(out, s)
            ctx.tick(1)
    return out.getvalue(), path


def bzip2_compress_with_paths(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    work_factor: int = DEFAULT_WORK_FACTOR,
    block_size: int = BLOCK_SIZE,
    multi_huffman: bool = True,
    histogram_fn: Optional[HistogramFn] = None,
) -> tuple[bytes, list[str]]:
    """Compress and also report the per-block sorting path (Fig. 6).

    ``multi_huffman`` selects bzip2's six-table switched coding
    (default) vs the simpler single-table coder; both decode with
    :func:`bzip2_decompress`.  ``histogram_fn`` replaces the Listing 3
    histogram inside mainSort (the mitigation seam); the output is
    unchanged because the frequency table it builds is identical.
    """
    if ctx is None:
        ctx = NativeContext()

    paths: list[str] = []
    body = bytearray(MAGIC)
    with ctx.func("BZ2_bzCompress"):
        rle = rle1_encode(ctx.input_bytes(data), ctx)
        for block_index, start in enumerate(range(0, len(rle), block_size)):
            chunk = rle[start : start + block_size]
            payload, path = _compress_block(
                ctx,
                chunk,
                block_index,
                work_factor,
                block_size,
                multi_huffman,
                histogram_fn=histogram_fn,
            )
            paths.append(path)
            body.append(BLOCK_MARKER)
            body += struct.pack("<I", len(payload))
            body += payload
        body.append(END_MARKER)
    return bytes(body), paths


def single_block_size(data: bytes) -> int:
    """The block size that makes ``data`` one *full* block.

    Blocks are cut from the RLE1 output, which runs of four or more
    equal bytes lengthen or shorten, so the block is sized to that
    output: the block then starts in ``mainSort`` (the ``ftab[j]++``
    gadget the analyses look for), and the compressed bytes equal
    :func:`bzip2_compress` at the default block size whenever the RLE1
    output fits one default block.  Empty input gets size 1 (no blocks).
    """
    return max(len(rle1_encode(list(data), NativeContext())), 1)


def bzip2_compress(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    work_factor: int = DEFAULT_WORK_FACTOR,
    block_size: int = BLOCK_SIZE,
    multi_huffman: bool = True,
    histogram_fn: Optional[HistogramFn] = None,
) -> bytes:
    """Compress ``data`` with the Bzip2-style pipeline."""
    blob, _ = bzip2_compress_with_paths(
        data, ctx, work_factor, block_size, multi_huffman, histogram_fn
    )
    return blob


def inverse_bwt(last: list[int], orig_ptr: int) -> list[int]:
    """Invert the Burrows-Wheeler transform via the LF mapping."""
    n = len(last)
    counts = [0] * 256
    for b in last:
        counts[b] += 1
    starts = [0] * 256
    total = 0
    for b in range(256):
        starts[b] = total
        total += counts[b]
    seen = [0] * 256
    lf = [0] * n
    for i, b in enumerate(last):
        lf[i] = starts[b] + seen[b]
        seen[b] += 1
    out = [0] * n
    p = orig_ptr
    for j in range(n - 1, -1, -1):
        out[j] = last[p]
        p = lf[p]
    return out


def _decompress_block(payload: bytes) -> list[int]:
    reader = MSBBitReader(payload)
    orig_ptr = reader.read(24)
    in_use = [bool(reader.read(1)) for _ in range(256)]
    n_symbols = sum(in_use) + 2
    eob = n_symbols - 1
    if reader.read(1):  # multi-table scheme
        symbols = decode_stream(reader, n_symbols, eob)
    else:
        table = HuffmanTable.read_lengths(reader, n_symbols)
        decoder = table.decoder()
        symbols = []
        while True:
            s = decoder.decode(reader)
            symbols.append(s)
            if s == eob:
                break
    last = mtf_rle2_decode(symbols, in_use)
    return inverse_bwt(last, orig_ptr)


def bzip2_decompress(blob: bytes) -> bytes:
    """Invert :func:`bzip2_compress`."""
    if blob[:4] != MAGIC:
        raise ValueError("bad bzip2 magic")
    pos = 4
    rle: list[int] = []
    while True:
        if pos >= len(blob):
            raise ValueError("truncated stream: no end marker")
        marker = blob[pos]
        pos += 1
        if marker == END_MARKER:
            break
        if marker != BLOCK_MARKER:
            raise ValueError(f"bad block marker 0x{marker:02x}")
        (length,) = struct.unpack("<I", blob[pos : pos + 4])
        pos += 4
        rle.extend(_decompress_block(blob[pos : pos + length]))
        pos += length
    return rle1_decode(rle)
