"""Command-line front end.

Subcommands: construct, verify, enumerate, induce, check, export-dot.
All data output is deterministic for a given invocation (stable key order,
no timestamps); timing and progress notes go to stderr only.  Exit codes:
0 success, 1 negative verdict (coloring not perfect, completeness check
found a counterexample), 2 usage or resource errors.
"""

import argparse
import json
import sys
import time

from .core import (
    BudgetExceededError,
    DistanceSet,
    FiniteCirculant,
    FiniteColoring,
    PeriodicColoring,
    coloring_from_json,
    coloring_to_json,
    make_odd_distance_set,
)
from .perfection import check_perfect
from .constructors import (
    all_4n_colorings,
    all_matched_colorings,
    path_colorings,
    two_color_cases,
)
from .enumeration import (
    canonical_form,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
)
from .verification import build_induced_set, check_conjecture, check_theorem_k2, induce

# Fixed fill palette for DOT output; colorings with more than 12 colors cycle.
DOT_PALETTE = (
    "gold",
    "skyblue",
    "tomato",
    "palegreen",
    "orchid",
    "orange",
    "turquoise",
    "salmon",
    "yellowgreen",
    "plum",
    "khaki",
    "lightgray",
)


class UsageError(Exception):
    pass


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{label} must be a comma-separated list of integers, got {text!r}")


def _parse_distances(text: str) -> DistanceSet:
    return DistanceSet(_parse_int_list(text, "--distances"))


def _infer_k(word: tuple[int, ...], override: int | None) -> int:
    return max(word) if override is None else override


def _load_coloring(args):
    """Coloring from --coloring: inline comma list or a JSON file path."""
    text = args.coloring
    if all(part.strip().lstrip("-").isdigit() for part in text.split(",") if part):
        word = _parse_int_list(text, "--coloring")
        if args.distances is None:
            raise UsageError("--distances is required with an inline coloring")
        dset = _parse_distances(args.distances)
        k = _infer_k(word, args.k)
        if getattr(args, "infinite", False):
            return PeriodicColoring(word, k), dset
        if getattr(args, "t", None) is not None and args.t != len(word):
            raise UsageError(f"--t {args.t} does not match the coloring length {len(word)}")
        return FiniteColoring(word, k), dset
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read coloring file {text!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {text!r}: {exc}")
    coloring, dset = coloring_from_json(data)
    if args.distances is not None and _parse_distances(args.distances) != dset:
        raise UsageError("--distances conflicts with the distances stored in the file")
    return coloring, dset


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _entry_lines(entries, dset, fmt: str) -> str:
    if fmt == "json":
        lines = [
            _json_line({"coloring": coloring_to_json(c, dset), "matrix": m.to_lists()})
            for c, m in entries
        ]
    else:
        lines = [
            ",".join(map(str, c.word)) + "  " + str(m.to_lists()) for c, m in entries
        ]
    return "".join(line + "\n" for line in lines)


def _parse_symmetry(text: str | None, default: str) -> tuple[bool, bool, bool]:
    names = (default if text is None else text).strip()
    if names in ("", "none"):
        return False, False, False
    parts = {p.strip() for p in names.split(",")}
    allowed = {"rotation", "reflection", "colors"}
    bad = parts - allowed
    if bad:
        raise UsageError(f"unknown symmetry name(s) {sorted(bad)}; allowed: {sorted(allowed)}")
    return "rotation" in parts, "reflection" in parts, "colors" in parts


def _cmd_verify(args) -> int:
    coloring, dset = _load_coloring(args)
    verdict = check_perfect(coloring, dset)
    if args.format == "json":
        _emit(_json_line(verdict.to_json()) + "\n", args)
    else:
        if verdict.is_perfect:
            rows = "\n".join("  " + " ".join(map(str, row)) for row in verdict.matrix.rows)
            _emit(f"perfect\n{rows}\n", args)
        else:
            u, v = verdict.witness
            _emit(f"not perfect: vertices {u} and {v} share a color but differ\n", args)
    return 0 if verdict.is_perfect else 1


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    if args.infinite:
        if args.n is None:
            raise UsageError("--infinite enumeration needs --n")
        dset = make_odd_distance_set(args.n)
        result = enumerate_periodic_perfect(args.n, args.k, state_budget=args.budget_states)
        # Period words are rotation classes already; only extra symmetries fold.
        _, reflection, colors = _parse_symmetry(args.symmetry, "rotation,colors")
        reps = {
            canonical_form(
                c.word, rotation=True, reflection=reflection, color_permutation=colors
            )
            for c, _ in result.entries
        }
        entries = []
        for word in sorted(reps):
            coloring = PeriodicColoring(word, args.k)
            entries.append((coloring, check_perfect(coloring, dset).matrix))
    else:
        if args.t is None or args.distances is None:
            raise UsageError("finite enumeration needs --t and --distances")
        dset = _parse_distances(args.distances)
        rotation, reflection, colors = _parse_symmetry(args.symmetry, "none")
        result = enumerate_perfect_finite(
            args.t,
            dset,
            args.k,
            rotation=rotation,
            reflection=reflection,
            color_permutation=colors,
            word_budget=args.budget_words,
        )
        entries = list(result.entries)
    _emit(_entry_lines(entries, dset, args.format), args)
    elapsed = time.perf_counter() - started
    print(
        f"{len(entries)} coloring(s) in {elapsed:.3f}s; stats: {result.stats}",
        file=sys.stderr,
    )
    return 0


def _cmd_construct(args) -> int:
    if args.family == "path":
        dset = make_odd_distance_set(args.n if args.n is not None else 1)
        colorings = path_colorings(args.k)
    elif args.family == "balanced":
        if args.n is None:
            raise UsageError("--family balanced needs --n")
        dset = make_odd_distance_set(args.n)
        colorings = all_4n_colorings(args.n, args.k, word_budget=args.budget_words)
    elif args.family == "matched":
        if args.n is None or args.t is None:
            raise UsageError("--family matched needs --n and --t")
        dset = make_odd_distance_set(args.n)
        colorings = all_matched_colorings(args.n, args.t, args.k)
    elif args.family == "two-color":
        if args.n is None or args.t is None:
            raise UsageError("--family two-color needs --n and --t")
        dset = make_odd_distance_set(args.n)
        cases = two_color_cases(args.n, args.t)
        colorings = cases.all()
        print(
            f"monochrome-matching: {len(cases.monochrome)}, bipartite: {len(cases.bipartite)}",
            file=sys.stderr,
        )
    else:
        raise UsageError(f"unknown family {args.family!r}")
    entries = [(c, check_perfect(c, dset).matrix) for c in colorings]
    _emit(_entry_lines(entries, dset, args.format), args)
    return 0


def _cmd_induce(args) -> int:
    coloring, dset = _load_coloring(args)
    if not isinstance(coloring, FiniteColoring):
        raise UsageError("induce expects a finite coloring")
    try:
        induced = induce(coloring, dset)
    except ValueError as exc:
        print(f"induce: {exc}", file=sys.stderr)
        return 1
    matrix = check_perfect(induced, dset).matrix
    payload = {"coloring": coloring_to_json(induced, dset), "matrix": matrix.to_lists()}
    if args.format == "json":
        _emit(_json_line(payload) + "\n", args)
    else:
        _emit(",".join(map(str, induced.word)) + "  " + str(matrix.to_lists()) + "\n", args)
    return 0


def _cmd_check(args) -> int:
    if args.n is None:
        raise UsageError("check needs --n")
    started = time.perf_counter()
    if args.theorem_k2:
        report = check_theorem_k2(
            args.n, state_budget=args.budget_states, word_budget=args.budget_words
        )
    else:
        if args.k is None:
            raise UsageError("check needs --k (or --theorem-k2)")
        report = check_conjecture(
            args.n, args.k, state_budget=args.budget_states, word_budget=args.budget_words
        )
    elapsed = time.perf_counter() - started
    _emit(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", args)
    print(
        f"n={report.n} k={report.k}: {report.verdict} "
        f"({report.counts['enumerated']} enumerated, {report.counts['induced']} induced) "
        f"in {elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0 if report.confirmed else 1


def _cmd_export_dot(args) -> int:
    coloring, dset = _load_coloring(args)
    if not isinstance(coloring, FiniteColoring):
        raise UsageError("export-dot expects a finite coloring")
    if coloring.t > 512:
        raise UsageError(f"refusing to render {coloring.t} vertices (limit 512)")
    graph = FiniteCirculant(coloring.t, dset)
    lines = [f"graph circulant_{coloring.t} {{", "  layout=circo;", '  node [shape=circle, style=filled];']
    for v in range(coloring.t):
        fill = DOT_PALETTE[(coloring.word[v] - 1) % len(DOT_PALETTE)]
        lines.append(f'  {v} [fillcolor="{fill}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    _emit("".join(line + "\n" for line in lines), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--out", default=None, help="write data output to this file")
    common.add_argument(
        "--budget-states",
        type=int,
        default=None,
        help="cap on window states and on candidate matrices searched",
    )
    common.add_argument(
        "--budget-words", type=int, default=None, help="cap on candidate words searched"
    )

    parser = argparse.ArgumentParser(
        prog="circulant-colorings",
        description="Perfect colorings of circulant graphs with odd distance sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[common], help="check one coloring for perfection")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None, help="comma list, e.g. 1,3")
    p.add_argument("--t", type=int, default=None, help="vertex count; must match the word length")
    p.add_argument("--k", type=int, default=None, help="color count (default: max color used)")
    p.add_argument("--infinite", action="store_true", help="treat the word as a period")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common], help="search for all perfect colorings")
    p.add_argument("--infinite", action="store_true")
    p.add_argument("--n", type=int, default=None, help="odd distances 1,3,...,2n-1 (infinite mode)")
    p.add_argument("--t", type=int, default=None, help="vertex count (finite mode)")
    p.add_argument("--distances", default=None, help="distance set (finite mode)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--symmetry",
        default=None,
        help="comma list of rotation,reflection,colors or none "
        "(default: none for finite, rotation,colors for --infinite)",
    )
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("construct", parents=[common], help="run a known construction family")
    p.add_argument("--family", required=True, choices=("path", "balanced", "matched", "two-color"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("induce", parents=[common], help="pull a finite coloring back to Z")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_induce, infinite=False)

    p = sub.add_parser("check", parents=[common], help="completeness checks vs exhaustive search")
    p.add_argument("--theorem-k2", action="store_true", dest="theorem_k2")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("export-dot", parents=[common], help="render a finite colored graph as DOT")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_export_dot, infinite=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
