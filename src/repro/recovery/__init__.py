"""Input recovery from cache-line-granular access traces.

These are the attacker-side computations of Section IV: given the
sequence of cache lines a leakage gadget touched (addresses with the low
6 bits masked) and the array base addresses (known in the threat model of
Section IV-A), reconstruct the plaintext.

* :mod:`repro.recovery.zlib_recover` — 2 direct bits per byte (25 %), or
  the full input when the top 3 bits of every byte are known a priori
  (e.g. lowercase ASCII).
* :mod:`repro.recovery.lzw_recover` — full input by replaying the
  dictionary; 8 candidates for the first byte's low 3 bits.
* :mod:`repro.recovery.bzip2_recover` — full input from the ftab trace
  with off-by-one ambiguity resolution and the consecutive-iteration
  redundancy used as error correction (Section V-D).
* :mod:`repro.recovery.oracle_recover` — the one non-cache decoder:
  BREACH-style secret recovery from a scalar compression oracle
  (two-guess probes, divide-and-conquer, charset escalation).
"""

from repro._lazy import lazy_exports

# Imported on first access: a job that runs one decoder loads only that
# decoder.
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.recovery.observe": ("observed_lines",),
        "repro.recovery.zlib_recover": (
            "recover_direct_bits", "recover_known_high_bits",
        ),
        "repro.recovery.lzw_recover": ("recover_lzw_input",),
        "repro.recovery.bzip2_recover": (
            "recover_bzip2_block", "RecoveredBlock",
        ),
        "repro.recovery.oracle_recover": (
            "CONFIRM_THRESHOLD", "DEFAULT_CHARSET_LADDER", "ProbeOutcome",
            "RecoveryResult", "probe_pair", "recover_next_char",
            "recover_secret", "score_candidates",
        ),
    },
)
