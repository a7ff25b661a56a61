"""A synthetic 21-file corpus standing in for Brotli's test files.

The Fig. 7 experiment only needs the corpus to span the regimes that
steer Bzip2's sorting control flow (DESIGN.md): tiny files and files
under one block (straight to fallbackSort — the confusable group the
paper calls out, e.g. the one-byte file ``x``), multi-block English-like
text (mainSort throughout), pathological repetition (mainSort abandons
to fallbackSort), binary/random data, and mixtures.  Names mirror the
Brotli corpus so the confusion matrix reads like the paper's.
"""

from __future__ import annotations

from repro.workloads.generators import dna_like, english_like, random_bytes
from repro.workloads.lipsum import repetitiveness_series

FINGERPRINT_CORPORA = ("brotli", "lipsum")


def brotli_like_corpus() -> dict[str, bytes]:
    """21 named test files, deterministic across runs."""
    quickfox = b"The quick brown fox jumps over the lazy dog"
    corpus: dict[str, bytes] = {
        # -- the tiny straight-to-fallbackSort group (the paper's
        #    hard-to-distinguish files, incl. the famous "x") --
        "x": b"x",
        "xyzzy": b"xyzzy",
        "10x10y": b"x" * 10 + b"y" * 10,
        "64x": b"x" * 64,
        "ukkonooa": b"ukko nooa ukko nooa kunnon mies " * 4,
        "quickfox": quickfox,
        "empty_ish": b"\n",
        # -- sub-block (< 10,000 byte) structured files: fallbackSort
        #    but with distinct durations --
        "asyoulik.txt": english_like(4000, seed=3),
        "alice29_excerpt.txt": english_like(8800, seed=4),
        "lcet10_excerpt.txt": english_like(6100, seed=5),
        "random_org_4k.bin": random_bytes(4096, seed=6),
        "monkey_dna": dna_like(7000, seed=7),
        # -- multi-block files: mainSort paths of varying length --
        "alice29.txt": english_like(24000, seed=8),
        "plrabn12.txt": english_like(31000, seed=9),
        "lcet10.txt": english_like(17500, seed=10),
        "random_org_10k.bin": random_bytes(10240, seed=11),
        "ecoli_dna": dna_like(22000, seed=12),
        # -- pathological repetition: mainSort abandons mid-way --
        "quickfox_repeated": quickfox * 500,  # ~22 KB of one sentence
        "compressed_repeated": b"abcabcabc" * 2500,
        "zeros": b"\x00" * 15000,
        "backward65536": bytes(range(256)) * 60,
    }
    if len(corpus) != 21:
        raise AssertionError(f"corpus must have 21 files, has {len(corpus)}")
    return corpus


def fingerprint_corpus(corpus: str) -> dict[str, bytes]:
    """A Section VI corpus by name: ``brotli`` (Fig. 7) or ``lipsum``
    (the Fig. 8 series, named ``test_00001.txt`` ...).  File order is
    the label assignment, so every capture and replay path takes the
    files from here."""
    if corpus == "brotli":
        return brotli_like_corpus()
    if corpus == "lipsum":
        return {
            f"test_{i:05d}.txt": data
            for i, data in enumerate(repetitiveness_series(), start=1)
        }
    raise ValueError(
        f"unknown corpus {corpus!r}; choose from {FINGERPRINT_CORPORA}"
    )


def http_response_corpus(n: int = 6, seed: int = 0) -> dict[str, bytes]:
    """``n`` secret-bearing HTTP responses as a named corpus.

    Each member is one :class:`~repro.workloads.generators.
    HttpResponseGenerator` payload with its own token and session —
    the web-realistic workload class the :mod:`repro.oracle` BREACH
    scenario compresses, reusable by fingerprint/classifier pipelines.
    """
    from repro.workloads.generators import HttpResponseGenerator, token_secret

    corpus: dict[str, bytes] = {}
    for i in range(n):
        secret = token_secret(16, seed=seed + 31 * i)
        gen = HttpResponseGenerator(secret, seed=seed + 31 * i)
        corpus[f"response_{i:02d}.http"] = gen.response(b"q=example")
    return corpus
