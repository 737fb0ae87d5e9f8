"""qtsetlin benchmark runner.

    python3 bench/run.py --workload build|verify|closed-form --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from src/.
The runner is a closed loop with one client: it runs the workload's commands
one at a time, each in a fresh child Python process (bench/child.py) that
calls `qtsetlin.cli.main(argv)`, and repeats the whole list until S seconds
have passed (it stops before an iteration that would overrun).  It uses no
threads and no process pool.

With --trace 0 it reports the end-to-end metrics, each the median over the
iterations of the run; times are in units of a fixed reference loop timed
around every command (see reference_seconds), setup_s in seconds at a fixed
reference speed, and the raw seconds are printed next to them.  With --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics of bench/tracer.py (medians over
the traced iterations) plus trace_overhead, the ratio of the traced to the
untraced median wall_ref.

After timing, every output is checked: the exit code, no traceback, the
stored SHA-256 (at the default seed; at other seeds every iteration must
give the same bytes) and an exact sanity check.  A command that fails any of
them is a failed operation.  The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
# Keeps a stuck command from holding the run past its 180 s limit.
COMMAND_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics, but not bounded: raw times swing with
# the host's speed (see reference_seconds).
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s", "ref_s": "s"}
REFERENCE_TERMS = 20000
# setup_s must read in seconds; it is given in seconds on a machine whose
# reference loop takes this long (about this 2-core Xeon when unloaded).
REFERENCE_NOMINAL_S = 0.05


def reference_seconds():
    """Time of a fixed pure-Python exact-arithmetic loop, the unit of
    `wall_ref` and `cpu_ref`.

    On a shared host the speed of the whole machine drifts by up to 1.5x
    over tens of seconds, and every process slows alike.  Timing this loop
    right before and after each command and dividing by it removes that
    drift; the loop never changes, so the ratio still moves with the
    program's own cost.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def per_layer_units():
    units = dict(tracer.metric_units())
    units["cli.out_bytes"] = "bytes"
    units["trace_overhead"] = "ratio"
    return units


def run_command(argv, traced, workdir):
    """Run one CLI command in a child process and measure it."""
    report_path = Path(workdir) / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(SRC), str(report_path), "1" if traced else "0", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {COMMAND_TIMEOUT_S} s", "stdout": b"", "timeout": True}
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "stdout": proc.stdout,
        "wall_s": end - start,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "error": None,
    }
    if proc.returncode != 0:
        result["error"] = f"exit code {proc.returncode}"
    elif b"Traceback" in proc.stderr:
        result["error"] = "traceback on stderr"
    elif not report_path.exists():
        result["error"] = "child wrote no report"
    if report_path.exists():
        with open(report_path) as fh:
            report = json.load(fh)
        result["setup_s"] = report["imported"] - start
        result["rss_mb"] = report["maxrss_kb"] / 1024
        if traced:
            result["layers"] = tracer.layer_metrics(report["spans"], report["counters"])
    return result


def run_iteration(commands, traced, workdir):
    """One pass over the commands, each bracketed by reference loops."""
    refs = [reference_seconds()]
    results = []
    for argv, _ in commands:
        results.append(run_command(argv, traced, workdir))
        refs.append(reference_seconds())
    ok = [(r, (before + after) / 2) for r, before, after in zip(results, refs, refs[1:]) if "setup_s" in r]
    sample = {
        "traced": traced,
        "wall_ref": sum(r["wall_s"] / ref for r, ref in ok),
        "cpu_ref": sum(r["cpu_s"] / ref for r, ref in ok),
        "setup_s": sum(r["setup_s"] / ref for r, ref in ok) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": max((r["rss_mb"] for r, _ in ok), default=0.0),
        "wall_s": sum(r["wall_s"] for r, _ in ok),
        "cpu_s": sum(r["cpu_s"] for r, _ in ok),
        "setup_raw_s": sum(r["setup_s"] for r, _ in ok),
        "ref_s": statistics.median(refs),
    }
    if traced:
        layers = {}
        for r, _ in ok:
            for key, value in r["layers"].items():
                if key == "exact.max_entry_bits":
                    layers[key] = max(layers.get(key, 0), value)
                else:
                    layers[key] = layers.get(key, 0) + value
        layers["cli.out_bytes"] = sum(len(r["stdout"]) for r in results)
        sample["layers"] = layers
    return sample, results


def check_outputs(variants, per_command, seed):
    """Failure messages per operation, checked outside the timed region.

    per_command[v][i] lists the results of command i of variant v."""
    failures = []
    for v, commands in enumerate(variants):
        for (argv, spec), results in zip(commands, per_command[v]):
            expected = spec["sha256"][v] if seed == workloads.DEFAULT_SEED else None
            failures += check_command(argv, spec, results, expected)
    return failures


def check_command(argv, spec, results, expected):
    """Failure messages for one command's results.  With no expected digest,
    every run must give the bytes of the first one that succeeded."""
    name = " ".join(argv[:3])
    failures = []
    verdicts = {}
    for r in results:
        if r["error"]:
            failures.append(f"{name}: {r['error']}")
            continue
        digest = hashlib.sha256(r["stdout"]).hexdigest()
        expected = expected or digest
        if digest != expected:
            failures.append(f"{name}: sha256 {digest} != {expected}")
            continue
        if digest not in verdicts:
            verdicts[digest] = workloads.check_output(spec, r["stdout"])
        if verdicts[digest]:
            failures.append(f"{name}: {verdicts[digest]}")
    return failures


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit(),
    }


def commit():
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(variants, seconds, trace, workdir):
    """Repeat the command lists within `seconds`; returns samples and
    per_command[v][i], the results of command i of variant v.

    Iteration k runs variant k mod len(variants).  The loop stops before an
    iteration that would likely end past the deadline, so a run takes
    `seconds` plus the output checks.  With trace, untraced and traced
    iterations alternate, starting untraced, and the loop runs until it has
    at least one of each."""
    samples = []
    per_command = [[[] for _ in commands] for commands in variants]
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(samples) % 2 == 1
        v = len(samples) % len(variants)
        start = time.monotonic()
        sample, results = run_iteration(variants[v], traced, workdir)
        samples.append(sample)
        for acc, r in zip(per_command[v], results):
            acc.append(r)
        if any(r.get("timeout") for r in results):
            break
        now = time.monotonic()
        if now + (now - start) > deadline and (not trace or len(samples) >= 2):
            break
    return samples, per_command


def summarize(samples, trace):
    """Metric name -> median value over the samples; without trace, the
    RAW_UNITS values come after the end-to-end metrics."""
    plain = [s for s in samples if not s["traced"]]
    if not trace:
        return {k: statistics.median(s[k] for s in plain) for k in {**END_TO_END_UNITS, **RAW_UNITS}}
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for key in per_layer_units():
        if key != "trace_overhead":
            metrics[key] = statistics.median(s["layers"].get(key, 0) for s in traced)
    metrics["trace_overhead"] = statistics.median(s["wall_ref"] for s in traced) / statistics.median(
        s["wall_ref"] for s in plain
    )
    return metrics


def main(argv=None, table=None):
    parser = argparse.ArgumentParser(description="Run one qtsetlin benchmark workload.")
    table = workloads.WORKLOADS if table is None else table
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qtsetlin" / "cli.py").is_file():
        print(f"error: no qtsetlin sources under {SRC}", file=sys.stderr)
        return 2

    variants = workloads.commands(args.workload, args.seed, table)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        samples, per_command = measure(variants, args.seconds, bool(args.trace), workdir)
    failures = check_outputs(variants, per_command, args.seed)
    attempted = sum(len(results) for lists in per_command for results in lists)

    medians = summarize(samples, bool(args.trace))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    fail_ratio = len(failures) / attempted
    for name, value in medians.items():
        print(f"{name:<32} {value:>16.6g} {units.get(name) or RAW_UNITS[name]}")
    print(f"{'fail_ratio':<32} {fail_ratio:>16.6g} ratio")
    for message in failures:
        print(f"FAILED {message}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest_seed": workloads.DEFAULT_SEED,
        "machine": machine(),
        "commands": [[argv for argv, _ in commands] for commands in variants],
        "sha256": [
            [sorted({hashlib.sha256(r["stdout"]).hexdigest() for r in rs}) for rs in lists]
            for lists in per_command
        ],
        "fail_ratio": fail_ratio,
        "iterations": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    print("record " + json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": medians[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
