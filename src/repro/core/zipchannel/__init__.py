"""ZipChannel: the two end-to-end attacks on Bzip2.

* :mod:`repro.core.zipchannel.sgx_attack` — Prime+Probe extraction of a
  buffer being compressed inside an SGX enclave (Section V): mprotect
  single-stepping, CAT partitioning, frame selection, and the Section
  IV-D/V-D recovery with redundancy error correction.
* :mod:`repro.core.zipchannel.fingerprint` — Flush+Reload fingerprinting
  of which file Bzip2 is compressing (Section VI): trace capture on the
  mainSort/fallbackSort entry lines and a neural-network classifier.
"""

from repro.core.zipchannel.sgx_attack import (
    AttackConfig,
    AttackOutcome,
    SgxBzip2Attack,
    run_attack,
    run_extraction_experiment,
)
from repro.core.zipchannel.fingerprint import (
    FingerprintChannel,
    capture_raw_trace,
    capture_trace,
    derive_capture_seed,
    pool_trace,
    run_fingerprint_experiment,
    train_classifier,
    victim_timeline,
)

__all__ = [
    "SgxBzip2Attack",
    "AttackConfig",
    "AttackOutcome",
    "run_attack",
    "run_extraction_experiment",
    "FingerprintChannel",
    "capture_raw_trace",
    "capture_trace",
    "derive_capture_seed",
    "pool_trace",
    "run_fingerprint_experiment",
    "train_classifier",
    "victim_timeline",
]
