"""Freeze the reference outputs the benchmark checks every call against.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs every workload at both sizes once and writes perfbench/references.json.
The references were frozen from the seed commit; rerun this only when a change
is meant to alter the program's outputs, and say so in that change.
"""

import json
import os

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    import circulant_colorings as cc

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    refs = {size: {} for size in workloads.SIZES}
    for size in workloads.SIZES:
        for name in workloads.PARAMS:
            calls = workloads.build(name, size, cc, out_dir)
            refs[size][name] = [call.digest(call.run()) for call in calls]
            print(size, name, refs[size][name], flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
