"""lipsam benchmark: one closed-loop client, ops back to back, one workload per run.

    python3 perfbench/run.py --workload dereverb --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Earlier lines
give every metric by name and unit, the machine, and any failed op.  A
result file with the same content goes to ``perfbench/out/``; a traced run
also writes its spans there.  README.md says what each metric means.
"""

import os
import sys
import time

START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy is first imported: on a small
# machine a second BLAS thread slows the training op and adds noise.
THREADS = "1"
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
# known before the package is imported, so that the import stays inside
# the timed set-up
WORKLOAD_NAMES = ("dereverb", "train", "bound_search")
SETUP_CHILDREN = 4
SUM_TOLERANCE_S = 1e-6


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up seconds and exit (used to "
        "repeat the set-up in fresh processes)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import lipsam and the workloads from this checkout's ``src``."""
    if not (SOURCE / "lipsam" / "__init__.py").is_file():
        raise BenchmarkError(f"no lipsam sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import lipsam

    if SOURCE.resolve() not in Path(lipsam.__file__).resolve().parents:
        raise BenchmarkError(f"lipsam was imported from {lipsam.__file__}, not from {SOURCE}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# machine record


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record():
    import numpy
    import scipy

    blas = {"name": "unknown", "version": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": THREADS,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Op:
    """One execution of one op: its index, its serial number in the run, its
    wall seconds and its Outcome (both None when the call raised)."""

    index: int
    serial: int
    seconds: float = None
    outcome: object = None


class Runner:
    """Runs, times and checks ops of one workload and records failures.

    Every execution counts as one attempted op; an execution fails when a
    check on its output fails, when it raises, or when its output differs
    bitwise from another execution of the same op.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def op(self, index, traced=False):
        inputs = self.workload.inputs(index)
        op = Op(index, self.attempted)
        self.attempted += 1
        if traced:
            self.tracer.install(op.serial)
        try:
            start = time.perf_counter()
            result = self.workload.run(inputs)
            seconds = time.perf_counter() - start
        except Exception:  # a failed op is counted and the run goes on
            self.fail(op, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return op
        finally:
            if traced:
                self.tracer.remove()
        try:
            outcome = self.workload.inspect(inputs, result)
        except Exception:  # a check that cannot be evaluated fails the op
            self.fail(op, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return op
        for failure in outcome.failures:
            self.fail(op, failure)
        op.seconds, op.outcome = seconds, outcome
        return op

    def fail(self, op, reason):
        self.failures.append((op.serial, op.index, reason))

    @property
    def failed(self):
        return len({serial for serial, _, _ in self.failures})

    def same_output(self, first, second, what):
        if first.outcome is None or second.outcome is None:
            return
        if first.outcome.fingerprint != second.outcome.fingerprint:
            self.fail(second, f"{what}: output differs bitwise from an earlier run of op {first.index}")


def tail(times):
    """(seconds, percentile): the highest percentile with at least ten ops
    above it, or the median when fewer than twenty ops leave no such
    percentile above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def setup_seconds(args, own):
    """Median set-up time over this process and SETUP_CHILDREN fresh ones."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {child.stderr.strip()[-500:]}")
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_untraced(runner, deadline):
    """Ops 1, 2, ... back to back until the deadline; returns those that completed."""
    done = []
    index = 1
    while True:
        op = runner.op(index)
        if op.outcome is not None:
            done.append(op)
        index += 1
        if time.perf_counter() >= deadline:
            return done


def run_traced(runner, deadline):
    """Each op runs once traced and once untraced, alternating which goes
    first, so the tracing overhead is measured on identical work.  Returns
    the (traced, untraced) pairs in which both completed."""
    pairs = []
    index = 1
    while True:
        traced_first = index % 2 == 1
        first = runner.op(index, traced=traced_first)
        second = runner.op(index, traced=not traced_first)
        traced, plain = (first, second) if traced_first else (second, first)
        runner.same_output(first, second, "traced vs untraced")
        if traced.outcome is not None and plain.outcome is not None:
            pairs.append((traced, plain))
        index += 1
        if time.perf_counter() >= deadline:
            return pairs


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, runner, ops, setup, first):
    times = [op.seconds for op in ops]
    tail_s, tail_pct = tail(times)
    work_name, work_unit = workload.work_metric
    quality_name, quality_unit = workload.quality_metric
    work_per_s = sum(op.outcome.work for op in ops) / sum(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    quality = first.outcome.quality if first.outcome is not None else float("nan")
    metrics = {
        "setup_s": (setup, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "work_per_s": (work_per_s, work_unit),
        work_name: (work_per_s, work_unit),
        quality_name: (quality, quality_unit),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    if workload.also_per_s:
        name, count = workload.also_per_s
        metrics[name] = (sum(op.outcome.counts[count] for op in ops) / sum(times), "1/s")
    notes = {
        "op_s_p50": f"over {len(times)} ops",
        "op_s_tail": f"p{tail_pct:.1f} over {len(times)} ops",
        "work_per_s": f"= {work_name}",
        quality_name: "of op 0",
    }
    return metrics, notes


def per_layer(tracer, runner, pairs, result_counts):
    """Per-layer metrics as means per traced op, plus the tracing overhead."""
    spans = tracer.per_op()
    traced = [op for op, _ in pairs]
    count = len(traced)
    empty = {"calls": {}, "self_s": {}, "top_s": 0.0}

    def mean(field, name):
        return sum(spans.get(op.serial, empty)[field].get(name, 0) for op in traced) / count

    metrics, other = {}, 0.0
    for name, timed in tracer.names.items():
        metrics[f"{name}.calls"] = (mean("calls", name), "count")
        if timed:
            metrics[f"{name}.self_s"] = (mean("self_s", name), "s")
    for op in traced:
        entry = spans.get(op.serial, empty)
        uncovered = op.seconds - entry["top_s"]
        other += uncovered / count
        selfs = list(entry["self_s"].values())
        covered = sum(selfs) + uncovered
        if abs(covered - op.seconds) > SUM_TOLERANCE_S or min(selfs, default=0.0) < -SUM_TOLERANCE_S:
            runner.fail(op, f"span self times add up to {covered!r} s, the op took {op.seconds!r} s")
    for name in result_counts:
        metrics[name] = (sum(op.outcome.counts.get(name, 0) for op in traced) / count, "count")

    fft_calls = metrics["signal.fft.calls"][0]
    iterations = metrics["pnp.iterations"][0]
    evaluations = metrics["lipschitz.modifier_jacobian.calls"][0]
    ascent = metrics["lipschitz.ascent_iterations"][0]
    metrics["signal.fft.calls_per_iter"] = (fft_calls / iterations if iterations else 0.0, "count")
    metrics["lipschitz.accept_ratio"] = (ascent / evaluations if evaluations else 0.0, "ratio")
    metrics["trainer.steps"] = (metrics["network.adam_step.calls"][0], "count")
    metrics["other.self_s"] = (other, "s")
    traced_p50 = statistics.median(op.seconds for op in traced)
    plain_p50 = statistics.median(op.seconds for _, op in pairs)
    metrics["trace.op_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_op_s_p50"] = (plain_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    metrics["trace.overhead_share"] = ((traced_p50 - plain_p50) / plain_p50, "ratio")
    notes = {"trace.op_s_p50": f"over {count} traced ops; per-layer values are means per traced op"}
    return metrics, notes


def selected(metrics, wanted):
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name not in metrics:
            raise BenchmarkError(f"BENCHMARK.json names {name!r}, which this run does not measure")
        value, unit = metrics[name]
        if unit != spec["unit"]:
            raise BenchmarkError(f"{name} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - START
    if args.setup_only:
        print(repr(own_setup))
        return 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        workloads.install_spans(tracer)
    runner = Runner(workload, tracer)

    # untimed warm-up: the first run of op 0, kept for the determinism check
    first = runner.op(0)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        pairs = run_traced(runner, deadline)
        timed = [plain for _, plain in pairs]
    else:
        timed = run_untraced(runner, deadline)
    runner.same_output(first, runner.op(0), "replay")
    if not timed:
        raise BenchmarkError("every timed op failed")

    setup, setup_samples = setup_seconds(args, own_setup)
    metrics, notes = end_to_end(workload, runner, timed, setup, first)
    notes["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in setup_samples)
    wanted = spec["end_to_end"]
    if args.trace:
        layer_metrics, layer_notes = per_layer(tracer, runner, pairs, workloads.RESULT_COUNTS)
        metrics.update(layer_metrics)
        notes.update(layer_notes)
        wanted = spec["per_layer"]
    metrics["error_rate"] = (runner.failed / runner.attempted, "ratio")

    machine = machine_record()
    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": selected(metrics, wanted),
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for serial, index, reason in runner.failures:
        print(f"FAILED op {index} (execution {serial}): {reason}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine,
        "ops": [{"index": op.index, "seconds": op.seconds, "work": op.outcome.work,
                 "quality": op.outcome.quality, **op.outcome.counts} for op in timed],
        "failures": runner.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "machine": machine,
                  "traced_ops": [[op.serial, op.index, op.seconds] for op, _ in pairs]}
        tracer.dump(OUT / f"{stem}-spans.json", header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, ImportError, OSError, subprocess.SubprocessError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        sys.exit(2)
