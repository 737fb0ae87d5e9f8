"""Run one qtsetlin CLI command in this process, for bench/run.py.

Usage: python3 child.py SRC_DIR REPORT_FILE TRACE(0|1) CLI_ARG...

The command's stdout and stderr pass through untouched.  When the command
ends, a JSON report goes to REPORT_FILE: the monotonic time at which
`qtsetlin.cli` finished importing, the peak RSS and, with
TRACE=1 the spans and counters of bench/tracer.py.
"""

import json
import resource
import sys
import time


def peak_rss_kb():
    """Peak resident set of this process image.  ru_maxrss would also count
    the parent's memory, which Linux carries over at fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    src, report_path, trace, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import qtsetlin.cli

    imported = time.monotonic()
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()
    try:
        return qtsetlin.cli.main(argv)
    finally:
        sys.stdout.flush()
        report = {"imported": imported, "maxrss_kb": peak_rss_kb()}
        if tracer is not None:
            report["spans"] = tracer.spans
            report["counters"] = tracer.counters
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
