"""Workload generators: the inputs the paper's experiments run on.

The paper uses Brotli's 21-file test corpus (Fig. 7) and 5 lipsum-based
files of graded repetitiveness (Fig. 8); neither ships here, so
:mod:`repro.workloads.corpus` synthesises a 21-file corpus spanning the
same regimes (tiny files, English-like text, DNA-like data, random
binary, pathological repetition) and :mod:`repro.workloads.lipsum`
implements the deterministic lipsum generator and the Fig. 8 series.
:class:`~repro.workloads.generators.HttpResponseGenerator` produces the
secret-bearing HTTP responses the :mod:`repro.oracle` BREACH scenario
compresses (and that fingerprint/corpus code reuses as a web-realistic
payload class via :func:`~repro.workloads.corpus.http_response_corpus`).
"""

from repro.workloads.lipsum import lipsum_paragraph, repetitiveness_series
from repro.workloads.corpus import (
    brotli_like_corpus,
    fingerprint_corpus,
    http_response_corpus,
)
from repro.workloads.generators import (
    TOKEN_CHARSETS,
    HttpResponseGenerator,
    english_like,
    lowercase_ascii,
    random_bytes,
    token_secret,
)

__all__ = [
    "TOKEN_CHARSETS",
    "HttpResponseGenerator",
    "lipsum_paragraph",
    "repetitiveness_series",
    "brotli_like_corpus",
    "fingerprint_corpus",
    "http_response_corpus",
    "english_like",
    "lowercase_ascii",
    "random_bytes",
    "token_secret",
]
