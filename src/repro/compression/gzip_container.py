"""Gzip-style container around the deflate kernel (RFC 1952 framing).

The paper's LZ77 target is "Gzip" — Zlib's deflate inside the gzip file
format.  The leaking gadget lives in the deflate match finder
(:mod:`repro.compression.lz77`); this module adds the container the
utility actually writes: magic, method/flags/mtime header, the deflate
body, and the CRC-32 + length trailer that the decompressor verifies.

The body is this repository's deflate token stream, not byte-exact
RFC 1951 (DESIGN.md); the framing and integrity checking are faithful.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.compression.crc import crc32
from repro.compression.lz77 import _Deflater, deflate_compress, deflate_decompress
from repro.exec.context import ExecutionContext

GZIP_MAGIC = b"\x1f\x8b"
METHOD_DEFLATE = 0x08
OS_UNIX = 0x03

HEADER_SIZE = 10  # magic + method/flags + mtime + xfl/OS
TRAILER_SIZE = 8  # CRC-32 + ISIZE
#: Exact container bytes around the deflate body (no optional fields:
#: this writer never emits FEXTRA/FNAME/FCOMMENT).  The size-oracle
#: accounting in :mod:`repro.oracle` adds this to body sizes instead of
#: re-deriving the framing.
CONTAINER_OVERHEAD = HEADER_SIZE + TRAILER_SIZE


class GzipFormatError(ValueError):
    """Malformed container or failed integrity check."""


def gzip_header(mtime: int = 0) -> bytes:
    """The fixed-size RFC 1952 header this writer emits."""
    return (
        GZIP_MAGIC
        + bytes([METHOD_DEFLATE, 0])  # method, flags
        + struct.pack("<I", mtime)
        + bytes([0, OS_UNIX])  # extra flags, OS
    )


def gzip_trailer(data: bytes) -> bytes:
    """CRC-32 + modulo-2^32 length trailer over the *uncompressed* data."""
    return struct.pack("<II", crc32(data), len(data) & 0xFFFFFFFF)


def gzip_compress(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    mtime: int = 0,
    deflater: Callable[[bytes, ExecutionContext], _Deflater] = _Deflater,
) -> bytes:
    """Wrap :func:`deflate_compress` output (with the same ``deflater``)
    in a gzip container."""
    return (
        gzip_header(mtime)
        + deflate_compress(data, ctx, deflater)
        + gzip_trailer(data)
    )


def compressed_size(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    body: Optional[bytes] = None,
) -> int:
    """Size in bytes of the gzip container for ``data`` — what a BREACH
    attacker reads off the Content-Length header.

    Exactly ``len(gzip_compress(data))``, with the container overhead
    accounted once here (:data:`CONTAINER_OVERHEAD`) so oracle size
    bookkeeping is never duplicated.  Pass ``body`` when the deflate
    body is already in hand (e.g. a guarded-compression variant) to
    skip recompressing.
    """
    if body is None:
        body = deflate_compress(data, ctx)
    return len(body) + CONTAINER_OVERHEAD


def gzip_decompress(blob: bytes) -> bytes:
    """Unwrap and verify a :func:`gzip_compress` container."""
    if len(blob) < 18:
        raise GzipFormatError("container too short")
    if blob[:2] != GZIP_MAGIC:
        raise GzipFormatError("bad gzip magic")
    if blob[2] != METHOD_DEFLATE:
        raise GzipFormatError(f"unsupported method {blob[2]}")
    if blob[3] != 0:
        raise GzipFormatError("flags not supported")

    body, trailer = blob[10:-8], blob[-8:]
    data = deflate_decompress(body)
    want_crc, want_len = struct.unpack("<II", trailer)
    if len(data) & 0xFFFFFFFF != want_len:
        raise GzipFormatError(
            f"length mismatch: {len(data)} != {want_len}"
        )
    got_crc = crc32(data)
    if got_crc != want_crc:
        raise GzipFormatError(
            f"crc mismatch: 0x{got_crc:08x} != 0x{want_crc:08x}"
        )
    return data


def gzip_mtime(blob: bytes) -> int:
    """Read the header's modification-time field."""
    if blob[:2] != GZIP_MAGIC or len(blob) < 10:
        raise GzipFormatError("bad gzip header")
    (mtime,) = struct.unpack("<I", blob[4:8])
    return mtime
