"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --size full|small \
        --references PATH [--trace] [--setup-only]

run.py starts this with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports the package and builds the inputs (the set-up), writes ``ready``
on stdout, runs the workload's calls once under ``time.perf_counter``, checks
each output against its frozen reference, and writes one JSON line with the
pass's wall time, peak RSS, failures and (traced) per-layer metrics.
Anything the program itself prints goes to stderr.
"""

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _check(calls, values, expected) -> list[dict]:
    """Failures among the calls: exceptions, then outputs unlike the reference."""
    if len(expected) != len(calls):
        return [{"call": c.label, "error": f"reference lists {len(expected)} calls"} for c in calls]
    failures = []
    for call, (value, error), ref in zip(calls, values, expected):
        if error is None:
            try:
                got = call.digest(value)
            except Exception as exc:  # a broken output is a failed call, not a crash
                error = f"digest failed: {exc!r}"
            else:
                if got != ref:
                    error = f"output {got} differs from reference {ref}"
        if error is not None:
            failures.append({"call": call.label, "error": error})
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--references", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr

    import circulant_colorings as cc

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(cc.__file__).startswith(src):
        raise SystemExit(f"imported {cc.__file__}, not the package under {src}")
    os.makedirs(OUT_DIR, exist_ok=True)
    calls = workloads.build(args.workload, args.size, cc, OUT_DIR)
    with open(args.references) as fh:
        expected = json.load(fh)[args.size][args.workload]
    tracer = tracing.Tracer(cc) if args.trace else None
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    values = []
    started = time.perf_counter()
    for call in calls:
        try:
            values.append((call.run(), None))
        except Exception as exc:  # counted as a failed call; the pass goes on
            values.append((None, f"raised {exc!r}"))
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failures": _check(calls, values, expected),
    }
    if tracer is not None:
        result["layers"], result["missing"] = tracer.metrics()
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.size}.bin")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
