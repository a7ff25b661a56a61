"""Flush+Reload fingerprinting of Bzip2's input file (Section VI).

The attacker monitors two cache lines of the shared ``libbz2``: the hot
code of ``mainSort()`` and of ``fallbackSort()``.  Which function runs,
for how long, and in what per-block pattern depends on the input's
repetitiveness and length (Fig. 6), so the resulting hit/miss traces
fingerprint the file.

The pipeline here matches the paper's:

1. the victim compresses a file; its mainSort/fallbackSort *timeline*
   (virtual-time intervals) comes from the profiled native run;
2. the attacker's Flush+Reload loop samples the two lines at a fixed
   period over 10,000 rounds, with measurement noise and a random
   starting phase — each capture of the same file differs, which is why
   a classifier is trained on many traces;
3. traces are max-pooled to the paper's 2 x 1,000 tensor and fed to the
   classifier in :mod:`repro.classify`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.compression.bzip2.pipeline import bzip2_compress_with_paths
from repro.exec.context import NativeContext, Profiler

MONITORED_FUNCTIONS = ("mainSort", "fallbackSort")
N_SAMPLES = 10_000  # Flush+Reload rounds (paper)
TENSOR_WIDTH = 1_000  # classifier input width per line (paper)


@dataclass
class VictimTimeline:
    """When the victim executed each monitored function."""

    intervals: dict[str, list[tuple[int, int]]]
    duration: int
    paths: list[str]  # per-block sorting path, ground truth


_victim_runs = 0


def victim_runs() -> int:
    """How many victim compressions :func:`victim_timeline` has run in
    this process.  A live fingerprint experiment and a trace capture
    both run the victim through it; a replay from a store runs none."""
    return _victim_runs


def victim_timeline(data: bytes, work_factor: Optional[int] = None) -> VictimTimeline:
    """Compress ``data`` once and extract the monitored-function
    timeline.  The victim run is deterministic per file; capture noise is
    added per-trace by :func:`capture_trace`."""
    global _victim_runs
    _victim_runs += 1
    profiler = Profiler()
    ctx = NativeContext(profiler=profiler)
    kwargs = {} if work_factor is None else {"work_factor": work_factor}
    _, paths = bzip2_compress_with_paths(data, ctx=ctx, **kwargs)
    return VictimTimeline(
        intervals={
            name: profiler.intervals(name) for name in MONITORED_FUNCTIONS
        },
        duration=profiler.now,
        paths=paths,
    )


@dataclass
class FingerprintChannel:
    """The attacker's Flush+Reload sampling loop.

    Args:
        period: victim virtual-time units per Flush+Reload round.
        p_false_negative: probability a real hit reads as a miss (the
            victim's access raced the flush).
        p_false_positive: probability a miss reads as a hit (prefetch /
            timing noise).
        speed_jitter: per-capture execution speed variation (frequency
            scaling, co-tenant contention): interval boundaries are
            scaled by a factor uniform in ``1 +- speed_jitter``.
    """

    period: int = 250
    p_false_negative: float = 0.08
    p_false_positive: float = 0.01
    speed_jitter: float = 0.10

    def capture(
        self, timeline: VictimTimeline, rng: random.Random
    ) -> np.ndarray:
        """One noisy 2 x N_SAMPLES boolean trace of the victim run."""
        trace = np.zeros((len(MONITORED_FUNCTIONS), N_SAMPLES), dtype=np.int8)
        phase = rng.randrange(self.period)
        speed = 1.0 + rng.uniform(-self.speed_jitter, self.speed_jitter)
        for row, name in enumerate(MONITORED_FUNCTIONS):
            for start, end in timeline.intervals[name]:
                start, end = int(start * speed), int(end * speed)
                first = max(0, (start + phase) // self.period)
                last = min(N_SAMPLES - 1, (end + phase) // self.period)
                trace[row, first : last + 1] = 1
        noise = np.random.default_rng(rng.getrandbits(32))
        flips_fn = noise.random(trace.shape) < self.p_false_negative
        flips_fp = noise.random(trace.shape) < self.p_false_positive
        trace = np.where(trace == 1, ~flips_fn, flips_fp).astype(np.int8)
        return trace


def pool_trace(trace: np.ndarray, width: int = TENSOR_WIDTH) -> np.ndarray:
    """Max-pool a 2 x N_SAMPLES trace down to the 2 x ``width`` tensor
    the classifier consumes."""
    rows, n = trace.shape
    stride = n // width
    return trace[:, : stride * width].reshape(rows, width, stride).max(axis=2)


def derive_capture_seed(base_seed: int, label: int, trace_index: int) -> int:
    """Deterministic 63-bit seed for one capture of one file.

    Each capture owns its randomness: reordering files, changing
    ``traces_per_file``, or capturing a single trace in isolation (e.g.
    replaying one stored-trace record from its metadata) all reproduce
    the exact same sample stream.  This is the fingerprint analogue of
    :func:`repro.campaign.spec.derive_seed`.
    """
    payload = f"fingerprint-capture:{base_seed}:{label}:{trace_index}"
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def _as_rng(rng: Union[int, random.Random]) -> random.Random:
    """Accept either a seed or a ready RNG (seed preferred: it is
    recordable in stored-trace metadata)."""
    return random.Random(rng) if isinstance(rng, int) else rng


def capture_raw_trace(
    timeline: VictimTimeline,
    rng: Union[int, random.Random],
    channel: Optional[FingerprintChannel] = None,
) -> np.ndarray:
    """One unpooled 2 x N_SAMPLES hit/miss trace — the unit
    :mod:`repro.traces` stores; :func:`pool_trace` turns it into the
    classifier tensor."""
    channel = channel or FingerprintChannel()
    return channel.capture(timeline, _as_rng(rng))


def capture_trace(
    timeline: VictimTimeline,
    rng: Union[int, random.Random],
    channel: Optional[FingerprintChannel] = None,
) -> np.ndarray:
    """One pooled, flattened feature vector for the classifier."""
    return pool_trace(capture_raw_trace(timeline, rng, channel)).reshape(-1)


def duration_only_feature(
    timeline: VictimTimeline,
    rng: Union[int, random.Random],
    channel: Optional[FingerprintChannel] = None,
) -> np.ndarray:
    """The prior-work baseline feature: total execution time only.

    Schwarzl et al. (the paper's reference [7]) fingerprint via overall
    compression timing; the paper's Section I argument is that the cache
    channel "provides additional information".  This produces the
    one-dimensional timing observation under the same noise model
    (speed jitter) as the trace channel, for head-to-head comparison.
    """
    channel = channel or FingerprintChannel()
    speed = 1.0 + _as_rng(rng).uniform(-channel.speed_jitter, channel.speed_jitter)
    return np.array([timeline.duration * speed], dtype=np.float32)


def train_classifier(
    x: np.ndarray,
    y: np.ndarray,
    n_files: int,
    epochs: int,
    seed: int,
    hidden: int = 96,
):
    """The Section VI training recipe every fingerprint path shares:
    split the dataset at ``seed + 1``, initialise the MLP at
    ``seed + 2``, fit once against the validation split.

    Returns ``(classifier, test split, metrics)``; the metrics are the
    picklable dict the campaign experiments report."""
    from repro.classify import MLPClassifier, split_dataset

    train, val, test = split_dataset(x, y, seed=seed + 1)
    clf = MLPClassifier(x.shape[1], n_files, hidden=hidden, seed=seed + 2)
    clf.fit(*train, epochs=epochs, x_val=val[0], y_val=val[1])
    metrics = {
        "test_accuracy": float(clf.accuracy(*test)),
        "train_accuracy": float(clf.accuracy(*train)),
        "n_files": n_files,
        "chance": 1.0 / n_files,
        "n_traces": int(x.shape[0]),
    }
    return clf, test, metrics


def run_fingerprint_experiment(
    corpus: str = "lipsum",
    traces: int = 10,
    epochs: int = 20,
    seed: int = 0,
    hidden: int = 96,
) -> dict:
    """One campaign-runnable Section VI attack: capture traces of each
    corpus file, train the classifier, return picklable metrics."""
    from repro.workloads import fingerprint_corpus

    files = list(fingerprint_corpus(corpus).values())
    x, y, _ = build_dataset(files, traces_per_file=traces, seed=seed)
    return train_classifier(x, y, len(files), epochs, seed, hidden)[2]


def build_dataset(
    files: Sequence[bytes],
    traces_per_file: int,
    seed: int = 0,
    channel: Optional[FingerprintChannel] = None,
    work_factor: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, list[VictimTimeline]]:
    """Capture ``traces_per_file`` noisy traces of each file.

    Returns ``(X, y, timelines)`` with X of shape
    ``(len(files) * traces_per_file, 2 * TENSOR_WIDTH)``.

    Every capture gets its own :func:`derive_capture_seed` seed rather
    than sharing one threaded RNG, so capture ``(label, i)`` is
    reproducible in isolation — which is what lets
    :mod:`repro.traces` record the seed per stored trace and replay any
    single capture bit-exactly.
    """
    with obs.span(
        "fingerprint.build_dataset",
        files=len(files),
        traces_per_file=traces_per_file,
    ):
        timelines = [victim_timeline(f, work_factor) for f in files]
        xs, ys = [], []
        for label, timeline in enumerate(timelines):
            for i in range(traces_per_file):
                capture_seed = derive_capture_seed(seed, label, i)
                xs.append(capture_trace(timeline, capture_seed, channel))
                ys.append(label)
    obs.counter_add("fingerprint.captures", len(xs))
    return np.array(xs, dtype=np.float32), np.array(ys), timelines
