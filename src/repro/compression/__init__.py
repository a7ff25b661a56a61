"""From-scratch models of the three compression families the paper studies.

Each module mirrors the algorithmic structure — and in particular the exact
cache-leaking gadget — of the reference C implementation named in the paper:

* :mod:`repro.compression.lz77` — Zlib/Gzip-style DEFLATE compressor with
  the chained hash table recommended by RFC 1951 (``head[ins_h]``,
  Listing 1 / Fig. 2).
* :mod:`repro.compression.lzw` — Ncompress-style LZW with the open-hash
  code table probe ``htab[(c << 9) ^ ent]`` (Listing 2 / Fig. 3).
* :mod:`repro.compression.bzip2` — Bzip2-style BWT pipeline with the
  two-byte frequency table ``ftab[j]++`` and the ``quadrant`` zeroing
  (Listing 3 / Fig. 4), plus the mainSort/fallbackSort control-flow
  divergence of Section VI.

All compressors take an :class:`~repro.exec.ExecutionContext` so the same
kernel runs natively, under TaintChannel, or inside the simulated enclave,
and every compressor has a working decompressor for round-trip testing.
"""

from repro._lazy import lazy_exports

# Imported on first access: an LZW job reads the LZW and DEFLATE site
# names and must not load the bzip2 pipeline (and numpy) with them.
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.compression.lz77": ("deflate_compress", "deflate_decompress"),
        "repro.compression.lzw": ("lzw_compress", "lzw_decompress"),
        "repro.compression.bzip2": ("bzip2_compress", "bzip2_decompress"),
    },
)
