"""Benchmark of facetforge's two pipelines on seeded synthetic inputs.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload is a closed loop: one caller in one thread issues the next op
only after the previous one returns.  A run times whole op batches until
``--seconds`` of op time have passed and at least ``min_ops`` ops ran, and
checks every op's output outside the timed interval.  Op time is the timed
ops plus the step that closes each batch (``lint_records`` on the
catalogue).  A run pays the workload's set-up several times, spread over the
run, and reports the median.  The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced batches, each paired with an
untraced run of the same batch for the tracing overhead.

Sizes, set-up passes, the default seed and that seed's output digests are in
``bench/workloads.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CONFIG = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*CONFIG["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or fail without it."""
    if not (SRC / "facetforge" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'facetforge'} not found; run from a facetforge checkout")
    sys.path.insert(0, str(SRC))
    import facetforge

    if Path(facetforge.__file__).resolve().parent != SRC / "facetforge":
        sys.exit(f"error: imported facetforge from {facetforge.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Measurement


class Loop:
    """What one pass over the op stream measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.close_counts: Counter = Counter()
        self.close_time = 0.0  # time of the steps that close each batch
        self.batches = 0
        self.digest = hashlib.sha256()

    @property
    def busy(self) -> float:
        """Op time: the timed ops and the steps that close their batches."""
        return sum(self.latencies) + self.close_time


class Setup:
    """Set-up passes of one run: each rebuilds the workload's program state."""

    def __init__(self, workload, api, tracer=None) -> None:
        self.workload, self.api, self.tracer = workload, api, tracer
        self.times: list[float] = []
        self.counts: dict = {}
        self.failures: list[str] = []

    def run_pass(self) -> None:
        from workloads import CheckFailed

        self.workload.release()
        gc.collect()
        if self.tracer is not None:
            self.tracer.current_op, self.tracer.enabled = -1 - len(self.times), True
        started = time.perf_counter()
        state = self.workload.setup(self.api)
        self.times.append(time.perf_counter() - started)
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            self.counts = self.workload.check_setup(state)
        except CheckFailed as exc:
            self.failures.append(f"set-up pass {len(self.times)}: {exc}")


def run_batch(workload, api, loop: Loop, digest_ops: int, tracer=None) -> None:
    """Run batch number ``loop.batches``: its ops, each checked outside its
    timing, then the step that closes the batch, which counts as op time."""
    from spans import CLOSE_OP
    from workloads import CheckFailed

    op = tracer.wrap("bench.op", workload.op) if tracer is not None else workload.op
    perf = time.perf_counter
    for item in workload.batch(loop.batches):
        index = len(loop.latencies)
        if tracer is not None:
            tracer.current_op, tracer.enabled = index, True
        error = None
        started = perf()
        try:
            output = op(api, item)
        except Exception:  # the loop must go on; the op counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = perf() - started
        if tracer is not None:
            tracer.enabled = False
        loop.latencies.append(elapsed)
        loop.labels.append(getattr(item, "shape", ""))
        if error is None:
            try:
                data, counts = workload.check(item, output)
            except CheckFailed as exc:
                error = f"op {index}: {exc}"
            except Exception:
                error = f"op {index}: check raised\n" + traceback.format_exc(limit=3)
        if error is not None:
            loop.failures.append(error)
            continue
        loop.counts.update(counts)
        if index < digest_ops:
            loop.digest.update(hashlib.sha256(data).digest())
    if tracer is not None:
        tracer.current_op, tracer.enabled = CLOSE_OP, True
    started = perf()
    try:
        closed = workload.close(api)
    except Exception:
        closed = None
        loop.failures.append(f"batch {loop.batches} close raised\n" + traceback.format_exc(limit=3))
    loop.close_time += perf() - started
    if tracer is not None:
        tracer.enabled = False
    if closed is not None:
        try:
            loop.close_counts.update(workload.check_close(closed))
        except CheckFailed as exc:
            loop.failures.append(f"batch {loop.batches}: {exc}")
    loop.batches += 1


def run_ops(workload, api, seconds: float, min_ops: int, digest_ops: int, after_batch=None) -> Loop:
    """Run whole batches until ``seconds`` of op time passed and ``min_ops``
    ops ran.  ``after_batch(busy)`` runs between batches with the op time so far."""
    loop = Loop()
    gc.collect()
    while loop.busy < seconds or len(loop.latencies) < min_ops:
        run_batch(workload, api, loop, digest_ops)
        if after_batch is not None:
            after_batch(loop.busy)
    return loop


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setup_times: list[float], loop: Loop) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": len(loop.latencies) / loop.busy,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_p90_ms": p90(loop.latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# One workload


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS, make_api

    spec = CONFIG["workloads"][args.workload]
    sizes = spec["tiny" if args.tiny else "sizes"]
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, sizes, scratch)
    workload.generate()
    api = make_api()
    try:
        if args.trace:
            result = traced(args, spec, workload, api)
        else:
            result = untraced(args, spec, workload, api)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def header(args, loop: Loop, failed: int, digest: str) -> None:
    ops = len(loop.latencies)
    print(f"{args.workload}: seed {args.seed}, {ops} ops in {loop.batches} batches,"
          f" {loop.busy:.2f} s of op time")
    print(f"  output digest {digest} (first {min(ops, CONFIG['digest_ops'])} ops)")
    for message in loop.failures[:5]:
        print(message, file=sys.stderr)
    if failed:
        print(f"  {failed} of {ops} ops failed", file=sys.stderr)


def check_digest(args, digest: str, spec: dict) -> bool:
    expected = spec.get("digest")
    if args.tiny or args.seed != CONFIG["default_seed"] or not expected:
        return True
    if digest != expected:
        print(f"error: output digest {digest} differs from the recorded {expected}",
              file=sys.stderr)
        return False
    return True


def untraced(args, spec, workload, api) -> dict:
    """Set-up passes are spread over the run, one before the first op and the
    rest between op batches, so their median sees the same machine as the ops."""
    passes = spec["setup_passes"]
    setup = Setup(workload, api)
    setup.run_pass()

    def between(busy: float) -> None:
        while len(setup.times) < passes and busy >= args.seconds * len(setup.times) / passes:
            setup.run_pass()

    loop = run_ops(workload, api, args.seconds, CONFIG["min_ops"], CONFIG["digest_ops"],
                   after_batch=between)
    while len(setup.times) < passes:
        setup.run_pass()
    loop.failures += setup.failures
    metrics = end_to_end(setup.times, loop)
    ops, failed = len(loop.latencies), len(loop.failures)
    digest = loop.digest.hexdigest()
    header(args, loop, failed, digest)
    notes = {
        "setup_s": f"median of {len(setup.times)} set-up passes:"
                   f" {', '.join(f'{t:.3f}' for t in setup.times)}",
        "throughput_per_s": f"{ops} ops over {loop.busy:.2f} s, batch closes"
                            f" {loop.close_time:.3f} s of it",
        "latency_p50_ms": f"{ops} ops",
        "latency_p90_ms": f"{ops} ops, {ops - int(0.9 * ops)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<18} {metrics[name]:>12.4f} {unit:<4} {notes[name]}")
    print(f"  {'error_rate':<18} {failed / ops:>12.4f} ratio {failed} of {ops} ops failed")
    return {
        "correct": failed == 0 and check_digest(args, digest, spec),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced(args, spec, workload, api) -> dict:
    """Each op batch runs twice in a row, untraced and then traced, until the
    untraced batches have had half the time; the overhead compares the pairs."""
    from layers import per_layer
    from spans import Tracer, install, uninstall
    from workloads import make_api

    tracer = Tracer()
    traced_api = make_api(tracer)
    setup = Setup(workload, traced_api, tracer)
    patched = install(tracer)
    try:
        for _ in range(spec["setup_passes"]):
            setup.run_pass()
    finally:
        uninstall(patched)
    plain, loop = Loop(), Loop()
    gc.collect()
    while plain.busy < args.seconds / 2 or len(plain.latencies) < CONFIG["min_ops"]:
        run_batch(workload, api, plain, CONFIG["digest_ops"])
        patched = install(tracer)
        try:
            run_batch(workload, traced_api, loop, CONFIG["digest_ops"], tracer)
        finally:
            uninstall(patched)
    loop.failures += setup.failures
    failed = len(plain.failures) + len(loop.failures)
    digest = loop.digest.hexdigest()
    header(args, loop, failed, digest)
    metrics = per_layer(tracer, loop, setup.counts, spec["setup_passes"])
    metrics["trace.overhead_pct"] = ("%", (loop.busy / plain.busy - 1) * 100)
    spans_file = OUT / f"spans-{args.workload}.tsv.gz"
    tracer.write(spans_file)
    print(f"  {len(tracer)} spans written to {spans_file.relative_to(ROOT)}")
    for name, (unit, value) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0 and plain.digest.hexdigest() == digest and check_digest(args, digest, spec),
        "attempted": len(plain.latencies) + len(loop.latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# All workloads, one process each


def run_all(args) -> int:
    status = 0
    rows = []
    for name in CONFIG["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, result))
    if not args.trace:
        print()
        names = [name for name, _ in END_TO_END]
        print(f"{'workload':<12} {'ops':>7} " + " ".join(f"{n:>17}" for n in names) + f" {'error_rate':>11}")
        for name, result in rows:
            values = " ".join(f"{result['metrics'][n]['value']:>17.4f}" for n in names)
            rate = result["failed"] / result["attempted"]
            print(f"{name:<12} {result['attempted']:>7} {values} {rate:>11.4f}")
        print(f"{'unit':<12} {'':>7} " + " ".join(f"{u:>17}" for _, u in END_TO_END) + f" {'ratio':>11}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
