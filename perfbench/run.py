"""Benchmark harness for circulant_colorings (standard library only).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/circulant_colorings``.
Load is a closed loop from one process: each pass of the workload runs in a
fresh interpreter (perfbench/child.py), one at a time, so peak RSS and set-up
time belong to that workload alone.

``--trace 0`` first starts a few interpreters that only set up (for
``setup_s``), then runs untraced passes until another pass would overrun
``--seconds`` (at least one), and reports the end-to-end metrics: the median
pass ``wall_s``, the median ``peak_rss_mb`` and the median ``setup_s``.
``--trace 1`` runs one untraced and one traced pass, whatever ``--seconds``
says, and reports the per-layer metrics plus ``trace_overhead_frac``.

The searches are exhaustive and deterministic, so no workload takes random
input: ``--seed`` is recorded, and the same seed gives the same inputs.
Every call's output is checked against perfbench/references.json; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and ends with
one JSON object keyed by workload.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SETUP_ONLY_STARTS = 5
# Every pass must end by then, so a run exits well inside 180 s.
HARD_LIMIT_S = 165.0


class Pass(NamedTuple):
    """What one child interpreter reported, and how long it took to set up."""

    setup_s: float | None
    report: dict | None
    error: str | None
    elapsed_s: float


def _start_child(workload: str, size: str, references: str, flags: list[str], timeout: float) -> Pass:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--size", size, "--references", references, *flags]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    setup_s, error, out = None, None, ""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            error = "child did not finish set-up" if ready else f"set-up exceeded {timeout:.0f} s"
        out, _ = proc.communicate(timeout=max(1.0, timeout - setup_s))
    except subprocess.TimeoutExpired:
        error = f"pass exceeded {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    elapsed_s = time.perf_counter() - started
    if error is None and proc.returncode != 0:
        error = f"child exited with code {proc.returncode}"
    report = None
    if error is None and "--setup-only" not in flags:
        lines = out.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            error = "child printed no result"
    return Pass(setup_s, report, error, elapsed_s)


def _count_failures(passes: list[Pass], calls_per_pass: int) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for p in passes:
        if p.report is None:
            attempted += calls_per_pass
            failed += calls_per_pass
            notes.append(p.error)
            continue
        attempted += p.report["attempted"]
        failed += len(p.report["failures"])
        notes += [f"{f['call']}: {f['error']}" for f in p.report["failures"]]
    return attempted, failed, notes


def run_workload(name: str, seconds: float, trace: bool, size: str = "full",
                 references: str = REFERENCES) -> dict:
    """Run one workload as the command line does; returns the result and details."""
    started = time.perf_counter()
    calls_per_pass = len(workloads.PARAMS[name][size])

    def child(flags):
        left = HARD_LIMIT_S - (time.perf_counter() - started)
        return _start_child(name, size, references, flags, left)

    setups = []
    if trace:
        passes = [child([]), child(["--trace"])]
    else:
        setups = [child(["--setup-only"]) for _ in range(SETUP_ONLY_STARTS)]
        passes = []
        window_start = time.perf_counter()
        while True:
            passes.append(child([]))
            estimate = statistics.median(p.elapsed_s for p in passes)
            spent = time.perf_counter() - window_start
            if spent + estimate > seconds or time.perf_counter() - started + estimate > HARD_LIMIT_S:
                break
    attempted, failed, notes = _count_failures(passes, calls_per_pass)
    notes += [p.error for p in setups if p.error]
    good = [p.report for p in passes if p.report is not None]
    detail = {"passes": len(passes), "attempted": attempted, "failed": failed, "notes": notes}
    metrics = {}
    if trace:
        base, traced = passes[0].report, passes[1].report
        if base is not None and traced is not None:
            detail["untraced_wall_s"] = base["wall_s"]
            detail["traced_wall_s"] = traced["wall_s"]
            detail["layers"] = traced["layers"]
            detail["missing"] = traced["missing"]
            detail["spans_file"] = traced["spans_file"]
            metrics = dict(traced["layers"])
            metrics["trace_overhead_frac"] = (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
    else:
        all_setups = [p.setup_s for p in setups + passes if p.setup_s is not None and not p.error]
        if good:
            for metric in ("wall_s", "peak_rss_mb"):
                detail[f"{metric}_samples"] = [r[metric] for r in good]
                metrics[metric] = statistics.median(detail[f"{metric}_samples"])
        if all_setups:
            detail["setup_s_samples"] = all_setups
            metrics["setup_s"] = statistics.median(all_setups)
    detail["failed_frac"] = failed / attempted
    return {"metrics": metrics, "detail": detail}


def _read_git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in the checkout)"


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _read_git_commit(),
        "src_sha256": h.hexdigest(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(name: str, seed: int, seconds: int, trace: bool, res: dict, units: dict) -> None:
    d = res["detail"]
    print(f"{name} (seed {seed}, --seconds {seconds}, trace {int(trace)}): "
          f"{d['passes']} pass(es), {d['attempted']} call(s)")
    if trace:
        if "layers" in d:
            print(f"  untraced wall_s {_fmt(d['untraced_wall_s'])} s, traced wall_s "
                  f"{_fmt(d['traced_wall_s'])} s, spans in {d['spans_file']}")
        for metric, value in res["metrics"].items():
            if metric not in d.get("layers", {}):
                print(f"  {metric:48s} {_fmt(value)} {units.get(metric, '')}")
        for metric, (unit, _) in tracing.LAYER_METRICS.items():
            if metric in d.get("layers", {}):
                print(f"  {metric:48s} {_fmt(d['layers'][metric])} {unit}")
            elif metric in d.get("missing", {}):
                print(f"  {metric:48s} missing: {d['missing'][metric]}")
    else:
        for metric, value in res["metrics"].items():
            samples = d.get(f"{metric}_samples", ())
            listed = ", ".join(f"{v:.4g}" for v in samples)
            print(f"  {metric:12s} {_fmt(value)} {units.get(metric, '')}  (median of {len(samples)}: {listed})")
    print(f"  {'failed_frac':12s} {_fmt(d['failed_frac'])} ratio  ({d['failed']} of {d['attempted']} calls)")
    for note in d["notes"]:
        print(f"  failure: {note}")


def _result_line(res: dict, units: dict, wanted: list[str]) -> dict:
    d = res["detail"]
    metrics = {m: {"value": res["metrics"][m], "unit": units[m]} for m in wanted if m in res["metrics"]}
    return {
        "correct": d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="circulant_colorings benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.PARAMS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = os.path.join(ROOT, "src", "circulant_colorings", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no package to benchmark at {os.path.relpath(package, ROOT)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    wanted = list(units)

    names = list(workloads.PARAMS) if args.workload == "all" else [args.workload]
    machine = machine_info()
    lines = {}
    for name in names:
        res = run_workload(name, args.seconds, bool(args.trace))
        _print_report(name, args.seed, args.seconds, bool(args.trace), res, units)
        lines[name] = _result_line(res, units, wanted)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
