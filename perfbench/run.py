"""The repository benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sgx_extract --seed 1 --seconds 30 --trace 0

The run sets up (imports, inputs from ``--seed``, warm-up), then repeats
the workload's iteration until ``--seconds`` of measurement have passed,
checking the program's outputs every time.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SpanRecorder  # noqa: E402
from speed import ReferenceLoop  # noqa: E402
from workloads import WORKLOADS, IterationResult, peak_rss_mb  # noqa: E402

SETUP_SAMPLES = 3  # this process's set-up plus two fresh-process ones
WORK_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_in_child(args, root: Path) -> float:
    """One more set-up, timed inside a fresh interpreter."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload",
        args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    proc = subprocess.run(
        argv, cwd=root, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, traced_run: bool, recorder, reference):
    """Iterate until ``seconds`` have been measured, timing the reference
    kernel before and after each iteration.  Returns the untraced and
    the traced ``(index, result)`` lists."""
    untraced, traced = [], []
    begin = time.perf_counter()
    index = 0
    while True:
        with_spans = traced_run and index % 2 == 1
        before = reference.seconds()
        result = workload.iteration(index, recorder if with_spans else None)
        result.ref_s = (before + reference.seconds()) / 2
        (traced if with_spans else untraced).append((index, result))
        index += 1
        if result.failures:
            break  # a broken program is not timed further
        enough = not traced_run or (untraced and traced)
        if enough and time.perf_counter() - begin >= seconds:
            break
    return untraced, traced


def exact_counts_repeat(results) -> bool:
    """Every exact count is identical across iterations of one seed."""
    counts = [r.counts for _, r in results if r.counts]
    return all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources at {root / 'src' / 'repro'}; run from a checkout")
    try:
        config = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    sys.path.insert(0, str(root / "src"))
    for var in [v for v in os.environ if v.startswith("REPRO_OBS")]:
        del os.environ[var]  # the program's observability stays off
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, root, config, WORKLOADS[args.workload](root, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, config: dict, workload) -> int:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(root / "src"):
        return fail(f"imported repro from {repro.__file__}, not from {root / 'src'}")
    workload.setup()
    setup_times = [time.perf_counter() - _STARTED]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0

    summary = IterationResult()  # run-level checks
    for _ in range(SETUP_SAMPLES - 1):
        setup_times.append(setup_in_child(args, root))

    recorder = SpanRecorder() if args.trace else None
    try:
        untraced, traced = measure(
            workload, args.seconds, bool(args.trace), recorder, ReferenceLoop()
        )
    except Exception:  # noqa: BLE001 - the program failed; report it
        traceback.print_exc()
        summary.check(False, "the workload raised")
        untraced, traced = [], []
    iterations = untraced + traced
    if iterations and not any(r.failures for _, r in iterations):
        workload.finish(summary)
    summary.check(
        exact_counts_repeat(untraced + traced),
        "exact work counts differ between iterations of one seed",
    )

    attempted = summary.attempted + sum(r.attempted for _, r in iterations)
    failed = summary.failed + sum(r.failed for _, r in iterations)
    for result in [summary] + [r for _, r in iterations]:
        for ops, what in result.failures:
            print(f"CHECK FAILED ({ops} ops): {what}", file=sys.stderr)

    metrics = {}
    plain = [r for _, r in untraced]
    if plain:
        metrics.update(
            {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "iter_s": statistics.median(r.wall_s for r in plain),
                "cpu_s": statistics.median(r.cpu_s for r in plain),
                "ref_s": statistics.median(r.ref_s for r in plain),
            }
        )
        metrics["iter_ref"] = metrics["iter_s"] / metrics["ref_s"]
        metrics.update(workload.end_to_end(plain))
        metrics["fail_ratio"] = failed / max(attempted, 1)
    if traced and plain:
        metrics.update(workload.layer_metrics(recorder, traced))
        metrics["trace_overhead_s"] = statistics.median(
            r.wall_s for _, r in traced
        ) - metrics["iter_s"]
        recorder.save(root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced iterations, {attempted} operations, {failed} failed"
    )
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units.get(name, '')}")
    reported = {
        m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
        for m in config[section]
        if m["name"] in metrics or section == "per_layer"
    }
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
