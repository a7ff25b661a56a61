"""Bzip2-style BWT compression pipeline.

The stack mirrors Bzip2 1.0.6 (Section IV-D of the paper):

    RLE1 -> block sort (BWT) -> MTF -> RLE2 -> Huffman

with the two structures the paper's attacks exploit reproduced exactly:

* the two-byte frequency table ``ftab[j]++`` built by
  :func:`repro.compression.bzip2.blocksort.histogram` (Listing 3 /
  Fig. 4) together with the ``quadrant[i] = 0`` writes that pace the
  single-stepping state machine of Fig. 5, and
* the mainSort/fallbackSort control-flow divergence of Fig. 6: full
  10,000-byte blocks start in ``mainSort`` and abandon to
  ``fallbackSort`` when the sorting budget is exhausted (too-repetitive
  input); shorter blocks go straight to ``fallbackSort``.

The container format is our own framing (DESIGN.md); every stage has an
exact inverse so round-trip tests cover the full pipeline.
"""

from repro._lazy import lazy_exports

# Imported on first access: reading a site name such as ``SITE_FTAB``
# loads ``blocksort`` alone, not the MTF/Huffman pipeline.
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.compression.bzip2.pipeline": (
            "BLOCK_SIZE", "bzip2_compress", "bzip2_decompress",
            "single_block_size",
        ),
        "repro.compression.bzip2.blocksort": (
            "block_sort", "histogram", "BudgetExhausted",
            "SITE_FTAB", "SITE_QUADRANT", "SITE_BLOCK",
        ),
    },
)
