"""Brotli-style LZ77 match finder (second LZ77 implementation surveyed).

Brotli — "the successor of Gzip for network traffic compression"
(Section II-A) — is the other mainstream LZ77 implementation the paper
names.  Where Zlib rolls a shift-xor hash over 3 bytes, Brotli's H5
hasher multiplies a 4-byte little-endian word by a constant and keeps
the top bits:

    ``h = ((LE32(w[s..s+4]) * 0x1e35a7bd) & 0xffffffff) >> (32 - 15)``

The bucket access ``head[h]`` is again an input-dependent dereference —
a data-flow gadget TaintChannel flags just like Zlib's — but the
multiplicative mix smears every input byte's taint across all index bits
(no clean per-byte bit ranges), which is why the paper's precise
bit-recovery analysis (Section IV-B) targets Zlib.  The survey benchmark
shows both facts: the gadget exists with full input coverage, and the
taint is smeared rather than positional.

Output uses the same token container as :mod:`repro.compression.lz77`,
so :func:`repro.compression.lz77.deflate_decompress` decodes it.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.lz77 import WMASK, _Deflater, deflate_compress
from repro.exec.context import ExecutionContext

HASH_MUL = 0x1E35A7BD
BUCKET_BITS = 15

SITE_BROTLI_HEAD = "brotli/HashBytes head[h]"
SITE_BROTLI_PREV = "brotli/prev[s & WMASK]"


class _BrotliLikeDeflater(_Deflater):
    """Deflate machinery with Brotli's multiplicative 4-byte hasher."""

    hash_bytes = 4

    def prime(self) -> None:
        """Brotli's hash is stateless per position: nothing to seed."""

    def hash_at(self, s: int):
        w = self.window
        word = (
            w.get(s)
            | (w.get(s + 1) << 8)
            | (w.get(s + 2) << 16)
            | (w.get(s + 3) << 24)
        )
        return ((word * HASH_MUL) & 0xFFFFFFFF) >> (32 - BUCKET_BITS)

    def insert_string(self, s: int) -> int:
        h = self.hash_at(s)
        hash_head = self.head.get(h, site=SITE_BROTLI_HEAD)
        self.prev.set(s & WMASK, hash_head, site=SITE_BROTLI_PREV)
        self.head.set(h, s, site=SITE_BROTLI_HEAD)
        return hash_head


def brotli_like_compress(
    data: bytes, ctx: Optional[ExecutionContext] = None
) -> bytes:
    """Compress with the Brotli-style match finder (same container as
    :func:`repro.compression.lz77.deflate_compress`)."""
    return deflate_compress(data, ctx, _BrotliLikeDeflater, "brotli_like")
