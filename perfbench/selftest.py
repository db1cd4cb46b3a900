"""Self-test of the benchmark harness, at small sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that:
  * BENCHMARK.json has the expected shape and names what the harness reports;
  * every workload passes its reference at the small size (periodic_k2 at
    --n 2, conjecture at (1, 3), finite_k3 at t = 10, induced_k7 at k = 4);
  * a deliberately wrong reference makes failed_frac exactly 1;
  * a traced run reports every per-layer metric or names it as missing,
    together with trace_overhead_frac, and a hook that cannot be found is
    reported as missing instead of failing;
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits 1 if any check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import run
import tracing
import workloads

OUT = os.path.join(run.HERE, "out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check([w["name"] for w in spec["workloads"]] == list(workloads.PARAMS),
          "BENCHMARK.json lists the harness's workloads")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]),
          "every workload has a name and a why of at most 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "metric names are well formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
          "metric units and directions are well formed")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check({"wall_s", "peak_rss_mb", "setup_s"} <= set(bounds) and max(bounds.values()) <= 0.25
          and bounds["setup_s"] == max(bounds.values()),
          "end-to-end bounds are at most 0.25 and setup_s has the largest")
    layer_units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    layer_units["trace_overhead_frac"] = "ratio"
    check(all(layer_units.get(m["name"]) == m["unit"] for m in spec["per_layer"]),
          "every per_layer metric is one the traced run computes, with the same unit")
    return spec


def check_workloads(spec: dict) -> None:
    bad_refs = os.path.join(OUT, "wrong-references.json")
    with open(run.REFERENCES) as fh:
        refs = json.load(fh)
    for calls in refs["small"].values():
        for ref in calls:
            ref["sha256"] = "0" * 64
    with open(bad_refs, "w") as fh:
        json.dump(refs, fh)

    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in workloads.PARAMS:
        res = run.run_workload(name, 1, trace=False, size="small")
        d = res["detail"]
        check(d["failed_frac"] == 0 and set(end_to_end) <= set(res["metrics"]),
              f"{name}: small run matches its reference and reports {', '.join(end_to_end)}")

        res = run.run_workload(name, 1, trace=False, size="small", references=bad_refs)
        check(res["detail"]["failed_frac"] == 1,
              f"{name}: a wrong reference gives failed_frac = 1 (got {res['detail']['failed_frac']})")

        res = run.run_workload(name, 1, trace=True, size="small")
        d = res["detail"]
        layers, missing = d.get("layers", {}), d.get("missing", {})
        unaccounted = [m for m in tracing.LAYER_METRICS if (m in layers) == (m in missing)]
        check(d["failed_frac"] == 0 and not unaccounted,
              f"{name}: traced run reports or names as missing every per-layer metric"
              + (f" (unaccounted: {unaccounted})" if unaccounted else ""))
        absent = [m for m in per_layer if m not in res["metrics"]]
        check(not absent, f"{name}: traced run emits every per_layer metric of BENCHMARK.json"
              + (f" (absent: {absent})" if absent else ""))


def check_missing_hook() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import circulant_colorings as cc

    saved = tracing.HOOKS
    tracing.HOOKS = saved + ("enumeration.no_such_function",)
    try:
        tracer = tracing.Tracer(cc)
    finally:
        tracing.HOOKS = saved
    cc.enumerate_perfect_finite(8, cc.make_odd_distance_set(2), 2)
    metrics, _ = tracer.metrics()
    check("enumeration.no_such_function" in tracer.missing_hooks
          and metrics.get("enumeration.classes_examined", 0) > 0,
          "a hook that cannot be found is named as missing and the pass still runs")


def check_bare_directory() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite_k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py exits non-zero without a result when there is no program (code {proc.returncode})")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    spec = check_spec()
    check_workloads(spec)
    check_missing_hook()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
