"""tcalgebra benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load is a closed loop with one client in one process: the next op starts
when the previous one has returned.  The loop runs whole cycles of the
workload's input mix until about --seconds have passed.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 the
public functions are wrapped in spans and it holds the per-layer metrics.
The line before it is a JSON report with the stamp, the sample count,
the error ratio and the failure classes.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_OPS = 100  # so that at least ten samples lie beyond p90

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "moebius.classify.self_s": "s",
    "moebius.boundary_contact.self_s": "s",
    "rewriter.parse.self_s": "s",
    "rewriter.normalize.self_s": "s",
    "rewriter.to_composition_sum.self_s": "s",
    "rewriter.roundtrip_exact_ratio": "ratio",
    "rewriter.roundtrip_attempts": "count",
    "symbol.mul.self_s": "s",
    "symbol.mul.calls": "count",
    "symbol.add.self_s": "s",
    "symbol.add.calls": "count",
    "rings.halfpoly_new.calls": "count",
    "rings.max_terms": "count",
    "symbol.spectrum_samples.self_s": "s",
    "symbol.essential_spectrum.self_s": "s",
    "symbol.essential_norm_report.self_s": "s",
    "symbol.is_fredholm.self_s": "s",
    "symbol.grid_points": "count",
    "symbol.norm_accuracy_nonfinite": "count",
    "oracle.composition_matrix.self_s": "s",
    "oracle.composition_matrix.calls": "count",
    "oracle.matrix_cells": "count",
    "oracle.composition_matrix.duplicate_ratio": "ratio",
    "oracle.toeplitz_matrix.self_s": "s",
    "oracle.truncate.self_s": "s",
    "oracle.vanishing_sequence.self_s": "s",
    "oracle.compression_eigs.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.ops_per_s": "1/s",
}


def _limit_blas_threads():
    """One BLAS thread unless set otherwise, and never more than the CPUs we may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        want = os.environ.get(var, "1")
        os.environ[var] = str(max(1, min(int(want) if want.isdigit() else 1, nproc)))
    return nproc


def _stamp(nproc: int, np) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "tcalgebra"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_VARS},
    }


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["algebra", "sweeps", "spectra", "sections", "cli", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _build(name, seed, workdir):
    import tcalgebra
    import tcalgebra.cli  # noqa: F401  (the tracer patches every submodule)
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli":
        return cls(tcalgebra, seed, ROOT, workdir)
    return cls(tcalgebra, seed)


def _probe_setup(args) -> float:
    """Seconds from process start to ready-for-the-first-timed-op, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe failed")
    return ready - start


def _measure(wl, seconds, tracer):
    """Closed loop over whole cycles until about `seconds` of op time and MIN_OPS ops.

    Returns [[op label, failure class or None, op seconds]], the cycle
    count and the ops whose check waits until after the loop.  Each output
    is checked right after its op, outside the timed region, and dropped:
    every op gets the cheap checks, every `check_every`-th op the full
    reference check.  A workload with `check_after` keeps its (small)
    outputs instead, so its (large) reference sections are built after
    the peak memory of the loop has been read.
    """
    records = []
    pending = []
    busy = 0.0
    cycles = 0
    span = tracer.span if tracer is not None else _no_span
    while True:
        for op in wl.cycle(cycles):
            out = err = None
            if tracer is not None:
                tracer.op_id = len(records)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                with span("op." + op.kind):
                    out = wl.execute(op)
            except Exception as exc:  # a raising op is a failed op, not a benchmark error
                err = f"raised_{type(exc).__name__}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            full = len(records) % wl.check_every == 0
            if err is None and wl.check_after:
                pending.append((len(records), op, out, full))
            elif err is None:
                err = wl.check(op, out, full)
            if tracer is not None and err == "norm_accuracy_nonfinite":
                tracer.count("symbol.norm_accuracy_nonfinite")
            records.append([op.label(), err, dt])
            busy += dt
        cycles += 1
        if busy + 0.5 * busy / cycles >= seconds and len(records) >= MIN_OPS:
            return records, cycles, pending


@contextlib.contextmanager
def _no_span(name):
    yield


def _layer_metrics(wl, tracer, ops_per_s) -> dict:
    times = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in PER_LAYER:
        span = name.rsplit(".", 1)[0]
        if name.endswith(".self_s"):
            out[name] = times.get(span, (0.0, 0))[0]
        elif name.endswith(".calls") and name not in counts:
            out[name] = times.get(span, (0.0, 0))[1]
        else:
            out[name] = counts.get(name, 0)
    out["oracle.composition_matrix.duplicate_ratio"] = tracer.duplicate_ratio()
    out["trace.ops_per_s"] = ops_per_s
    attempts = getattr(wl, "roundtrip_attempts", 0)
    out["rewriter.roundtrip_attempts"] = attempts
    out["rewriter.roundtrip_exact_ratio"] = wl.roundtrip_exact / attempts if attempts else 0.0
    return out


def _cold_start_layers(seed, workdir) -> dict:
    """Start-up layers of the CLI, measured in every traced run.

    One cycle of the cli workload's argv runs in child processes under
    `python -X importtime`, and again in-process through cli.main under a
    tracer of its own, so none of it enters the workload's layer figures.
    """
    import tcalgebra
    import workloads
    from tracing import Tracer

    cli = workloads.Cli(tcalgebra, seed, ROOT, workdir, importtime=True)
    probe = Tracer()
    probe.install()
    samples = []
    try:
        for op in cli.cycle(0):
            cli.execute(op)
            samples.append(workloads.parse_importtime(cli.outputs()[1]))
            probe.enabled = True
            cli.run_in_process(op)
            probe.enabled = False
    finally:
        probe.uninstall()
    return {
        "cli.interpreter_s": _interpreter_seconds(),
        "cli.numpy_import_s": statistics.median(s["numpy"] for s in samples),
        "cli.import_s": statistics.median(s["tcalgebra"] for s in samples),
        "cli.main.self_s": probe.self_times().get("cli.main", (0.0, 0))[0],
    }


def _interpreter_seconds(runs=5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    nproc = _limit_blas_threads()
    import numpy as np

    probes = 0 if args.trace or args.setup_probe else SETUP_PROBES
    setups = [_probe_setup(args) for _ in range(probes)]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = _build(args.workload, args.seed, workdir)
        wl.warm_up()
        if args.setup_probe:
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        loop_start = time.perf_counter()
        records, cycles, pending = _measure(wl, args.seconds, tracer)
        loop_s = time.perf_counter() - loop_start
        if wl.name == "cli":
            peak_kb = wl.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            cold = _cold_start_layers(args.seed, workdir)
        for idx, op, out, full in pending:
            records[idx][1] = wl.check(op, out, full)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = np.array([r[2] for r in records])
    attempted = len(records)
    failures = {}
    for label, err, _ in records:
        if err is not None:
            key = f"{err} [{label}]"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    import workloads

    known = set(workloads.KNOWN_DEFECTS)
    correct = all(k.split(" ")[0] in known for k in failures)
    ops_per_s = attempted / float(lat.sum())

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        values = {**_layer_metrics(wl, tracer, ops_per_s), **cold}
        units = PER_LAYER
    else:
        p50, p90 = np.percentile(lat, [50, 90])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": float(p50) * 1e3,
            "op_p90_ms": float(p90) * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": _stamp(nproc, np),
        "samples": attempted,
        "cycles": cycles,
        "checked": -(-attempted // wl.check_every),
        "loop_s": loop_s,
        "timed_s": float(lat.sum()),
        "error_ratio": failed / attempted,
        "failures": failures,
        "known_defects": {k: v for k, v in workloads.KNOWN_DEFECTS.items()},
        "setup_samples_s": setups,
    }
    for name, value in values.items():
        sys.stdout.write(f"{args.workload:9s} {name:44s} {value:16.6f} {units[name]}\n")
    sys.stdout.write(f"{args.workload:9s} {'error_ratio':44s} {failed / attempted:16.6f} ratio "
                     f"({failed}/{attempted})\n")
    sys.stdout.write(json.dumps({"report": report}) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    names = ["algebra", "sweeps", "spectra", "sections", "cli"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        untraced = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
            result = json.loads(lines[-1])
            if trace == 0:
                untraced = result["metrics"]
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                report = json.loads(lines[-2])["report"]
                for cls, count in report["failures"].items():
                    sys.stdout.write(f"{name:9s} failed {count} x {cls}\n")
            else:
                overhead = untraced["ops_per_s"]["value"] - result["metrics"]["trace.ops_per_s"]["value"]
                sys.stdout.write(f"{name:9s} {'tracing_overhead_ops_per_s':44s} {overhead:16.6f} 1/s\n")
            for key, val in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    sys.stdout.write(json.dumps(combined) + "\n")
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "tcalgebra", "__init__.py")):
        sys.stderr.write(f"error: no tcalgebra sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
