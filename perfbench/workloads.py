"""The benchmark's workloads: fixed inputs, the calls a pass makes, and the
digest each call's output is checked by.

The searches are exhaustive and deterministic, so every input is a fixed
(n, k, t).  Each workload has a full size (the measured one) and a small size
(for the self-test).  ``PARAMS`` is plain data so the parent harness can count
calls without importing the package under test.
"""

import hashlib
import json
import os
from typing import Callable, NamedTuple

# workload -> size -> one parameter tuple per call, in call order.
PARAMS = {
    # cli.main(["enumerate", "--infinite", "--n", n, "--k", 2, "--out", <tmp>])
    "periodic_k2": {"full": [(5,)], "small": [(2,)]},
    # check_conjecture(n, k)
    "conjecture": {"full": [(2, 3), (1, 4), (1, 5)], "small": [(1, 3)]},
    # enumerate_perfect_finite(t, D_3, 3)
    "finite_k3": {"full": [(14,)], "small": [(10,)]},
    # build_induced_set(2, k)
    "induced_k7": {"full": [(7,)], "small": [(4,)]},
}
SIZES = ("full", "small")


class Call(NamedTuple):
    label: str
    run: Callable[[], object]
    digest: Callable[[object], dict]


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _entries_sha256(items) -> str:
    """SHA-256 over the sorted compact-JSON lines of the given entries."""
    return _sha256_lines(sorted(json.dumps(item, separators=(",", ":")) for item in items))


def _periodic_k2(cc, n: int, out_dir: str) -> Call:
    out = os.path.join(out_dir, f"periodic_k2-{os.getpid()}.jsonl")
    argv = ["enumerate", "--infinite", "--n", str(n), "--k", "2", "--out", out]

    def digest(exit_code) -> dict:
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        return {"exit_code": exit_code, "sha256": hashlib.sha256(data).hexdigest()}

    # Attribute lookups happen at call time, so trace hooks installed after
    # set-up are the ones called.
    return Call(f"cli.main(enumerate --infinite --n {n} --k 2)", lambda: cc.cli.main(argv), digest)


def _report_digest(report) -> dict:
    return {
        "verdict": report.verdict,
        "counts": report.counts,
        "sha256": _sha256_lines([json.dumps(report.to_json(), sort_keys=True)]),
    }


def _conjecture(cc, n: int, k: int) -> Call:
    return Call(f"check_conjecture({n}, {k})", lambda: cc.check_conjecture(n, k), _report_digest)


def _finite_digest(result) -> dict:
    return {
        "colorings": len(result.entries),
        "sha256": _entries_sha256([list(c.word), m.to_lists()] for c, m in result.entries),
    }


def _finite_k3(cc, t: int) -> Call:
    dset = cc.make_odd_distance_set(3)
    return Call(
        f"enumerate_perfect_finite({t}, D_3, 3)",
        lambda: cc.enumerate_perfect_finite(t, dset, 3),
        _finite_digest,
    )


def _induced_digest(induced) -> dict:
    return {
        "entries": len(induced.entries),
        "sha256": _entries_sha256(
            [list(e.coloring.word), e.matrix.to_lists(), sorted(e.tags)] for e in induced.entries
        ),
    }


def _induced_k7(cc, k: int) -> Call:
    return Call(f"build_induced_set(2, {k})", lambda: cc.build_induced_set(2, k), _induced_digest)


def build(name: str, size: str, cc, out_dir: str) -> list[Call]:
    """The calls of one pass of ``name`` at ``size``; ``cc`` is the package."""
    params = PARAMS[name][size]
    if name == "periodic_k2":
        import circulant_colorings.cli  # noqa: F401  (binds cc.cli)

        return [_periodic_k2(cc, n, out_dir) for (n,) in params]
    if name == "conjecture":
        return [_conjecture(cc, n, k) for n, k in params]
    if name == "finite_k3":
        return [_finite_k3(cc, t) for (t,) in params]
    return [_induced_k7(cc, k) for (k,) in params]
