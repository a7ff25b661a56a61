#!/usr/bin/env python3
"""Quickstart: run TaintChannel on compression software.

This reproduces the paper's core workflow in a minute: point the tool at
an (instrumented) compressor, get back the leakage gadgets with the exact
input-to-pointer computation and the bit-level taint map of Fig. 2.

Run:  python examples/quickstart.py
"""

from repro.compression import bzip2_compress, deflate_compress, lzw_compress
from repro.compression.bzip2 import single_block_size
from repro.core.taintchannel import TaintChannel
from repro.workloads import english_like


def main() -> None:
    data = english_like(1200, seed=1)
    tc = TaintChannel()

    targets = {
        "Gzip/Zlib (LZ77)": lambda ctx: deflate_compress(data, ctx),
        "Ncompress (LZ78/LZW)": lambda ctx: lzw_compress(data, ctx),
        "Bzip2 (BWT)": lambda ctx: bzip2_compress(
            data, ctx, block_size=single_block_size(data)
        ),
    }

    for name, target in targets.items():
        print("=" * 72)
        result = tc.analyze(name, target)
        print(result.summary())
        # Show the Fig. 2-style report for the busiest gadget.
        gadget = max(result.gadgets, key=lambda g: g.count)
        print()
        print(tc.render(result, gadget, with_slice=True, sample_index=5))
        print()

    print("=" * 72)
    print(
        "All three families leak input-dependent addresses; see\n"
        "examples/survey_recovery.py for turning those traces back into\n"
        "plaintext, and examples/sgx_extraction.py for the end-to-end\n"
        "Prime+Probe attack."
    )


if __name__ == "__main__":
    main()
