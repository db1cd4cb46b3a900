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
    DEFAULT_BUDGET,
    BudgetExceededError,
    DistanceSet,
    FiniteColoring,
    PeriodicColoring,
    coloring_from_json,
    coloring_to_json,
    least_rotation,
    make_odd_distance_set,
)
from .perfection import check_perfect, is_bipartite_coloring
from .constructors import all_4n_colorings, all_matched_colorings, path_colorings
from .enumeration import _images, enumerate_perfect_finite, enumerate_periodic_perfect
from .verification import _pull_back, check_conjecture, check_theorem_k2

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


def _load_coloring(args):
    """Coloring from --coloring: inline comma list or a JSON file path.

    An inline word's k is its largest color; a file keeps its own t and k.
    """
    text = args.coloring
    if all(part.strip().lstrip("-").isdigit() for part in text.split(",") if part):
        word = _parse_int_list(text, "--coloring")
        if args.distances is None:
            raise UsageError("--distances is required with an inline coloring")
        dset = _parse_distances(args.distances)
        kind = PeriodicColoring if args.infinite else FiniteColoring
        return kind(word, max(word)), dset
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
    if args.infinite and isinstance(coloring, FiniteColoring):
        raise UsageError("--infinite conflicts with the finite coloring stored in the file")
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


def _class_representatives(entries, reflection: bool, colors: bool) -> list[PeriodicColoring]:
    """The coloring of each class's canonical form, in one sweep of the entries.

    Period words are rotation classes already; only the extra symmetries
    fold.  The entries are sorted, each word is the least rotation of a
    primitive period, and the search is exhaustive, so every class's words
    are all among them and the first one met is the least, its
    canonical_form.  That entry is kept and the least rotations of its
    images mark the class's other words, which are skipped and unmarked
    when met, so the marks hold only words still ahead and are freed on
    return, before any output is built.
    """
    marked: set[tuple[int, ...]] = set()
    kept = []
    for coloring, _ in entries:
        if coloring.word in marked:
            marked.discard(coloring.word)
            continue
        kept.append(coloring)
        marked.update(map(least_rotation, _images(coloring.word, reflection, colors)))
        marked.discard(coloring.word)
    return kept


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    mode = "enumerate --infinite" if args.infinite else "finite enumeration"
    for option in ("t", "distances") if args.infinite else ("n",):
        if getattr(args, option) is not None:
            raise UsageError(f"--{option} is not read by {mode}")
    if args.infinite:
        if args.n is None:
            raise UsageError("--infinite enumeration needs --n")
        dset = make_odd_distance_set(args.n)
        result = enumerate_periodic_perfect(args.n, args.k, budget=args.budget)
        _, reflection, colors = _parse_symmetry(args.symmetry, "rotation,colors")
        entries = [
            (c, check_perfect(c, dset).matrix)
            for c in _class_representatives(result.entries, reflection, colors)
        ]
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
            budget=args.budget,
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
    for option in {"path": ("t", "budget"), "balanced": ("t",)}.get(args.family, ()):
        if getattr(args, option) is not None:
            raise UsageError(f"--{option} is not read by --family {args.family}")
    if args.family == "two-color" and args.k != 2:
        raise UsageError(f"--k {args.k} is not read by --family two-color, which uses 2 colors")
    if args.family == "path":
        dset = make_odd_distance_set(args.n if args.n is not None else 1)
        colorings = path_colorings(args.k)
    elif args.family == "balanced":
        if args.n is None:
            raise UsageError("--family balanced needs --n")
        dset = make_odd_distance_set(args.n)
        colorings = all_4n_colorings(args.n, args.k, budget=args.budget)
    elif args.family in ("matched", "two-color"):
        if args.n is None or args.t is None:
            raise UsageError(f"--family {args.family} needs --n and --t")
        dset = make_odd_distance_set(args.n)
        colorings = all_matched_colorings(args.n, args.t, args.k, budget=args.budget)
        if args.family == "two-color":
            bipartite = sum(is_bipartite_coloring(c, dset) for c in colorings)
            print(
                f"monochrome-matching: {len(colorings) - bipartite}, bipartite: {bipartite}",
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
        induced, matrix = _pull_back(coloring, dset)
    except ValueError as exc:
        print(f"induce: {exc}", file=sys.stderr)
        return 1
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
        if args.k not in (None, 2):
            raise UsageError(f"--k {args.k} is not read by --theorem-k2, which uses 2 colors")
        report = check_theorem_k2(args.n, budget=args.budget)
    else:
        if args.k is None:
            raise UsageError("check needs --k (or --theorem-k2)")
        report = check_conjecture(args.n, args.k, budget=args.budget)
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
    t = coloring.t
    lines = [f"graph circulant_{t} {{", "  layout=circo;", '  node [shape=circle, style=filled];']
    for v in range(t):
        fill = DOT_PALETTE[(coloring.word[v] - 1) % len(DOT_PALETTE)]
        lines.append(f'  {v} [fillcolor="{fill}"];')
    # one line per (vertex, distance) incidence, so multiedges repeat
    lines.extend(f"  {u} -- {(u + d) % t};" for u in range(t) for d in dset)
    lines.append("}")
    _emit("".join(line + "\n" for line in lines), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared options its handler reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write data output to this file")
    fmt = argparse.ArgumentParser(add_help=False, parents=[out])
    fmt.add_argument("--format", choices=("json", "table"), default="json")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"work units each search may spend (default {DEFAULT_BUDGET}): vertices colored "
        "plus k! per perfect partition (finite), matrices generated, and window digits placed "
        "plus steps walked (infinite); part words plus colorings built (construct --family "
        "balanced) and per-edge assignments (construct --family matched and two-color)",
    )

    parser = argparse.ArgumentParser(
        prog="circulant-colorings",
        description="Perfect colorings of circulant graphs with odd distance sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[fmt], help="check one coloring for perfection")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None, help="comma list, e.g. 1,3")
    p.add_argument("--infinite", action="store_true", help="treat the word as a period")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[fmt, budget], help="search for all perfect colorings")
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

    p = sub.add_parser("construct", parents=[fmt, budget], help="run a known construction family")
    p.add_argument("--family", required=True, choices=("path", "balanced", "matched", "two-color"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("induce", parents=[fmt], help="pull a finite coloring back to Z")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None)
    p.set_defaults(handler=_cmd_induce, infinite=False)

    p = sub.add_parser(
        "check", parents=[out, budget], help="completeness checks vs exhaustive search"
    )
    p.add_argument("--theorem-k2", action="store_true", dest="theorem_k2")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("export-dot", parents=[out], help="render a finite colored graph as DOT")
    p.add_argument("--coloring", required=True, help="comma list or JSON file")
    p.add_argument("--distances", default=None)
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
