"""Ncompress-style LZW (LZ78 family) with the paper's hash-probe gadget.

The compressor follows the structure of (N)compress 5.1 (Section IV-C of
the paper): a pre-initialised dictionary (codes 0-255 map to themselves,
256 is reserved), an open hash table ``htab`` probed at

    ``hp = (c << 9) ^ ent``            (Listing 2)

with the secondary displacement probe of the original, and variable-width
output codes growing from 9 to 16 bits.  The first-probe access
``htab[hp]`` is the cache side-channel gadget: ``hp``'s bits 9-16 carry
the current input byte ``c`` (Fig. 3), and ``ent`` is replayable by the
attacker, so the whole input leaks (see :mod:`repro.recovery.lzw_recover`).

Differences from the original, chosen for determinism and documented in
DESIGN.md: the hash table is sized ``1 << 17`` (a power of two covering
the full range of ``hp``) instead of the prime 69001, and block mode
clears the dictionary deterministically when the code table fills rather
than on ncompress's compression-ratio heuristic.  The default
(``block_mode=False``) freezes the full table instead, which is what the
recovery replay in :mod:`repro.recovery.lzw_recover` mirrors.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.compression.bitio import LSBBitReader, LSBBitWriter
from repro.exec.arrays import TArray
from repro.exec.context import ExecutionContext, NativeContext
from repro.taint.value import value_of

MAGIC = b"\x1f\x9d"
INIT_BITS = 9
MAX_BITS = 16
MIN_MAX_BITS = 9
CLEAR_CODE = 256  # emitted only in block mode to reset the dictionary
FIRST_FREE = 257
MAX_MAX_CODE = 1 << MAX_BITS
BLOCK_MODE_FLAG = 0x80  # bit 7 of the header flag byte, as in compress
HSHIFT = 9  # the paper's gadget shift
HSIZE = 1 << 17  # covers (c << 9) ^ ent for ent < 2**16

SITE_PRIMARY = "compress/htab[hp]"
SITE_SECONDARY = "compress/htab[hp] (secondary probe)"
SITE_CODETAB = "compress/codetab[hp]"


def _maxcode(n_bits: int) -> int:
    return (1 << n_bits) - 1


def lzw_compress(
    data: bytes,
    ctx: Optional[ExecutionContext] = None,
    max_bits: int = MAX_BITS,
    block_mode: bool = False,
    hash_bits: Optional[int] = None,
    wrap_table: Optional[Callable[[str, TArray], Any]] = None,
) -> bytes:
    """Compress ``data`` with ncompress-style LZW.

    Args:
        data: the plaintext.
        ctx: execution substrate; defaults to a fresh
            :class:`~repro.exec.NativeContext`.  Run under a
            :class:`~repro.exec.TracingContext` to expose the
            ``htab[hp]`` gadget to TaintChannel.
        max_bits: maximum code width, 9-16 (``compress -b``).
        block_mode: emit CLEAR and reset the dictionary when the code
            table fills (deterministic variant of ncompress's ratio
            heuristic); default freezes the table instead.
        hash_bits: shrink the hash table to ``1 << hash_bits`` slots and
            reduce every probe index modulo that size (the Section VIII
            patched kernel covers a table it can afford to scan).  The
            emitted codes are unchanged while the table has room; a full
            table raises :class:`RuntimeError`.  Default: the full
            ``HSIZE`` table, indexed by ``hp`` directly.
        wrap_table: ``wrap_table(site, array)`` returns the table the
            accesses of one gadget site go through (``SITE_PRIMARY`` and
            ``SITE_SECONDARY`` on ``htab``, ``SITE_CODETAB`` on
            ``codetab``): the seam the mitigation apply layer routes its
            cover wrappers through.  Default: the arrays themselves.

    Returns:
        the compressed stream (2 magic bytes, 1 flag byte, then variable
        width codes packed LSB-first).
    """
    if not MIN_MAX_BITS <= max_bits <= MAX_BITS:
        raise ValueError(f"max_bits must be in [9, 16], got {max_bits}")
    if ctx is None:
        ctx = NativeContext()
    max_max_code = 1 << max_bits
    flag = max_bits | (BLOCK_MODE_FLAG if block_mode else 0)
    hsize = HSIZE if hash_bits is None else 1 << hash_bits
    reduce = hash_bits is not None

    out = LSBBitWriter()
    with ctx.func("compress"):
        htab = ctx.array("htab", hsize, elem_size=8, init=-1)
        codetab = ctx.array("codetab", hsize, elem_size=2, init=0)
        primary = secondary = htab
        ctab = codetab
        if wrap_table is not None:
            primary = wrap_table(SITE_PRIMARY, htab)
            secondary = wrap_table(SITE_SECONDARY, htab)
            ctab = wrap_table(SITE_CODETAB, codetab)
        inp = ctx.input_bytes(data)

        if not data:
            return MAGIC + bytes([flag])

        n_bits = INIT_BITS
        maxcode = _maxcode(n_bits)
        free_ent = FIRST_FREE

        ent = inp[0]  # dictionary entry for the current match prefix
        for pos in range(1, len(data)):
            ctx.tick(4)
            c = inp[pos]
            fc = (ent << 8) | c  # fcode identifying the pair (ent, c)
            hp = (c << HSHIFT) ^ ent  # Listing 2, line 9 -- leaks c
            if reduce:
                hp = hp % hsize

            # Primary probe: the gadget access.
            found = False
            slot = primary.get(hp, site=SITE_PRIMARY)
            if slot == fc:
                found = True
            elif not (slot < 0):
                # Secondary probing, as in compress.c.  ``hp -= disp; if
                # (hp < 0) hp += hsize`` is expressed modularly because
                # our tainted ints are unsigned; hsize is a power of two
                # so the reduction is a taint-preserving mask.  The step
                # is forced odd: compress.c's prime table size makes any
                # displacement walk every slot, but with a power-of-two
                # table an even step cycles through a fraction of the
                # slots and can loop forever once the table freezes.
                disp = hsize - (value_of(hp) | 1)
                probes = 0
                while True:
                    ctx.tick(2)
                    hp = (hp + (hsize - disp)) % hsize
                    slot = secondary.get(hp, site=SITE_SECONDARY)
                    probes += 1
                    if slot == fc:
                        found = True
                        break
                    if slot < 0:
                        break
                    if probes > hsize:
                        # Only a reduced table can fill: HSIZE has room
                        # for every code of the 16-bit dictionary.
                        raise RuntimeError(
                            f"LZW hash table full ({hsize} slots); "
                            f"raise hash_bits"
                        )

            if found:
                ent = ctab.get(hp, site=SITE_CODETAB)
                continue

            # Not in the table: emit the code for ent, insert (ent, c).
            out.write(ent, n_bits)
            if free_ent < max_max_code:
                ctab.set(hp, free_ent, site=SITE_CODETAB)
                primary.set(hp, fc, site=SITE_PRIMARY)
                free_ent += 1
                if free_ent > maxcode and n_bits < max_bits:
                    n_bits += 1
                    maxcode = _maxcode(n_bits)
            elif block_mode:
                # Table full: clear and start over (ncompress cl_block,
                # triggered deterministically instead of by ratio).
                out.write(CLEAR_CODE, n_bits)
                htab.fill(-1)
                codetab.fill(0)
                n_bits = INIT_BITS
                maxcode = _maxcode(n_bits)
                free_ent = FIRST_FREE
            ent = c

        out.write(ent, n_bits)

    return MAGIC + bytes([flag]) + out.getvalue()


def lzw_decompress(blob: bytes) -> bytes:
    """Invert :func:`lzw_compress`.

    The dictionary is reconstructed exactly as the compressor built it —
    the reversibility the paper's recovery attack relies on ("knowledge of
    all previous input bytes allows the attacker to compute all dictionary
    entries in the same manner as the compressor does").
    """
    if blob[:2] != MAGIC:
        raise ValueError("bad LZW magic")
    max_bits = blob[2] & 0x1F
    if not MIN_MAX_BITS <= max_bits <= MAX_BITS:
        raise ValueError(f"unsupported maxbits {max_bits}")
    block_mode = bool(blob[2] & BLOCK_MODE_FLAG)
    max_max_code = 1 << max_bits
    payload = blob[3:]
    if not payload:
        return b""

    reader = LSBBitReader(payload)
    n_bits = INIT_BITS
    maxcode = _maxcode(n_bits)
    free_ent = FIRST_FREE

    # code -> (prefix_code | None, last_byte)
    initial = {c: (None, c) for c in range(256)}
    prefix: dict[int, tuple[Optional[int], int]] = dict(initial)

    def expand(code: int) -> bytes:
        buf = bytearray()
        cur: Optional[int] = code
        while cur is not None:
            parent, byte = prefix[cur]
            buf.append(byte)
            cur = parent
        return bytes(reversed(buf))

    out = bytearray()
    old_code = reader.read(n_bits)
    out += expand(old_code)
    first_byte = out[0]

    while reader.bits_left() >= n_bits:
        # Width bump check is one entry ahead of our table (the encoder
        # inserts immediately after emitting; we insert one code later).
        if free_ent + 1 > maxcode and n_bits < max_bits:
            n_bits += 1
            maxcode = _maxcode(n_bits)
            if reader.bits_left() < n_bits:
                break
        code = reader.read(n_bits)
        if block_mode and code == CLEAR_CODE:
            # Dictionary reset: mirror the encoder, then re-read the
            # stream-start "first code" at 9 bits.
            prefix = dict(initial)
            n_bits = INIT_BITS
            maxcode = _maxcode(n_bits)
            free_ent = FIRST_FREE
            if reader.bits_left() < n_bits:
                break
            old_code = reader.read(n_bits)
            out += expand(old_code)
            first_byte = expand(old_code)[0]
            continue
        if code >= free_ent:  # the KwKwK special case
            if code != free_ent:
                raise ValueError(f"corrupt stream: code {code} > {free_ent}")
            entry = expand(old_code) + bytes([first_byte])
        else:
            entry = expand(code)
        out += entry
        first_byte = entry[0]
        if free_ent < max_max_code:
            prefix[free_ent] = (old_code, first_byte)
            free_ent += 1
        old_code = code

    return bytes(out)
