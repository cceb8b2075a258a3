"""Command-line entry point.

Verb subcommands: generate, extract, evaluate, curve, randomize, tree. Every
run emits exactly one manifest ("key TAB value" lines): `subcommand`, then the
subcommand's options under their option names (dashes become underscores,
booleans are `true`/`false`) with the sizes `extract` counts, then `out`,
`version`, `duration_s` and `argv`. The argv line lets `hiertag --manifest
FILE` replay the run (a manifest whose argv is itself a replay is rejected).
Seeded subcommands are byte-reproducible: their random work is split into
seeded cells, each with its own derived stream.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import os
import random
import sys
import time
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from . import __version__
from .baselines import (
    CENTRALITY_KINDS,
    SYNTHETIC_ROOT,
    HeymannParams,
    SchmitzParams,
    extract_heymann,
    extract_schmitz,
    strip_synthetic_root,
)
from .benchmark import (
    BenchmarkConfig,
    iter_object_tags,
    parse_count_distribution,
    parse_profile,
    parse_walk_length,
)
from .corpus import build_cooccurrence, load_corpus
from .extract_a import AlgoAParams, extract_a
from .extract_b import AlgoBParams, extract_b_from_pruned, prune_network
from .hierarchy import (
    REWIRING_ORDERS,
    Hierarchy,
    binary_tree,
    hierarchy_to_text,
    load_hierarchy,
    rewire,
)
from .metrics import decay_curve, evaluate_hierarchies
from .textio import TextFormatError, record_lines


def _write_files(targets: Sequence[tuple[str, Iterable[str], TextIO]]) -> None:
    """Write each `(path, chunks, stream)` whole, and either every file or none.

    "-" writes to `stream`. Each named file's chunks go to a temporary file
    beside it, and the temporary files replace their paths only once every
    one is written, so a failure leaves no partial file and any older file
    at a path untouched. Write errors name the path, not its temporary file.
    """
    for path, _, _ in targets:
        if path != "-" and os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    pending: list[tuple[str, str]] = []
    try:
        for path, chunks, stream in targets:
            if path == "-":
                stream.writelines(chunks)
                continue
            tmp = f"{path}.{os.getpid()}.tmp"
            pending.append((tmp, path))
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and path != "-":
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _load_tree(path: str, command: str) -> Hierarchy:
    h = load_hierarchy(path)
    if not h.is_tree():
        raise ValueError(f"{path}: {command} rewires links, so it requires a single-rooted tree")
    return h


class _ReplayParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that a replay reports
    them as its manifest's, not as the command line's."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def _replay_args(path: str) -> tuple[list[str], argparse.Namespace]:
    """The arguments stored in the argv row of manifest `path`, and their
    parse; a usage error names the manifest and that row's line."""
    for lineno, fields in record_lines(path, TextFormatError):
        if fields[0] == "argv":
            if fields[1:2] == ["--manifest"]:
                raise ValueError(
                    f"manifest {path!r} replays another manifest; nested replay is not supported"
                )
            with _named(f"{path}: line {lineno}: argv"):
                return fields[1:], build_parser(_ReplayParser).parse_args(fields[1:])
    raise ValueError(f"manifest {path!r} has no argv line to replay")


def _grid_from_step(option: str, step: float) -> tuple[float, ...]:
    if not 0.0 < step <= 1.0:
        raise ValueError(f"{option} must be in (0, 1]")
    # a finer grid is rejected before it is built: 1/step + 1 fractions, each
    # a row of curve cells
    if step < 0.001:
        raise ValueError(f"{option} must be at least 0.001")
    points = round(1.0 / step)
    if abs(points * step - 1.0) > 1e-9:
        raise ValueError(f"{option} must divide 1 evenly")
    return tuple(i / points for i in range(points + 1))


def _check_runs(option: str, runs: int) -> None:
    if runs < 1:
        raise ValueError(f"{option} must be >= 1")


@contextlib.contextmanager
def _named(prefix: str) -> Iterator[None]:
    """Re-raise a ValueError from the block with `prefix` (the file or
    option it concerns) before its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _parse_descriptor(option: str, parse: Callable[[str], tuple], text: str) -> tuple:
    with _named(f"{option} {text!r}"):
        return parse(text)


def _option_rows(args: argparse.Namespace, *names: str) -> list[tuple[str, object]]:
    return [(name, getattr(args, name)) for name in names]


# a handler's output chunks and its manifest rows; `main` writes both
_Run = tuple[Iterable[str], list[tuple[str, object]]]


def _cmd_generate(args: argparse.Namespace) -> _Run:
    h = load_hierarchy(args.hierarchy)
    config = BenchmarkConfig(
        object_count=args.objects,
        p_random_walk=args.p_rw,
        tags_per_object=_parse_descriptor(
            "--tags-per-object", parse_count_distribution, args.tags_per_object
        ),
        walk_length=_parse_descriptor("--walk", parse_walk_length, args.walk),
        frequency_profile=_parse_descriptor("--profile", parse_profile, args.profile),
        seed=args.seed,
    )
    with _named(args.hierarchy):
        objects = iter_object_tags(h, config)
    rows = _option_rows(
        args, "hierarchy", "objects", "tags_per_object", "p_rw", "walk", "profile", "seed"
    )
    return ("\t".join(tags) + "\n" for tags in objects), rows


# algorithm -> (params class, its options in the class's field order, extractor)
_EXTRACTORS = {
    "a": (AlgoAParams, ("omega",), extract_a),
    "b": (AlgoBParams, ("z_threshold", "force_single_root"), extract_b_from_pruned),
    "heymann": (HeymannParams, ("similarity_threshold", "centrality"), extract_heymann),
    "schmitz": (SchmitzParams, ("t_subsume", "min_cooccurrence"), extract_schmitz),
}


def _cmd_extract(args: argparse.Namespace) -> _Run:
    params_class, options, extractor = _EXTRACTORS[args.algorithm]
    # params are checked before the corpus is read, so a bad option fails fast
    params = params_class(*(getattr(args, name) for name in options))
    corpus = load_corpus(args.input, with_ids=args.with_ids)
    network = build_cooccurrence(corpus)
    rows = _option_rows(args, "input", "with_ids", "algorithm")
    rows += [("objects", corpus.n_objects), ("tags", corpus.n_tags), ("pairs", network.n_pairs)]
    rows += _option_rows(args, *options)
    if args.algorithm == "b":
        network = prune_network(network, params.z_threshold)
        rows.append(("pairs_kept", network.n_pairs))
    with _named(args.input):
        h = extractor(network, params)
    return [hierarchy_to_text(h)], rows


def _cmd_evaluate(args: argparse.Namespace) -> _Run:
    # the curve options serve only --lmi, and are checked before any file is read
    grid = None
    if args.lmi:
        _check_runs("--curve-runs", args.curve_runs)
        grid = _grid_from_step("--curve-grid-step", args.curve_grid_step)
    exact = _load_tree(args.exact, "evaluate --lmi") if args.lmi else load_hierarchy(args.exact)
    recon = load_hierarchy(args.recon)
    if SYNTHETIC_ROOT in recon.tags and SYNTHETIC_ROOT not in exact.tags:
        recon = strip_synthetic_root(recon)
    with _named(f"{args.exact}, {args.recon}"):
        report = evaluate_hierarchies(
            exact,
            recon,
            with_lmi=args.lmi,
            curve_order=args.curve_order,
            curve_runs=args.curve_runs,
            curve_grid=grid,
            seed=args.seed,
        )
    curve = ("curve_order", "curve_runs", "curve_grid_step") if args.lmi else ()
    return [report.to_text()], _option_rows(args, "exact", "recon", "lmi", *curve, "seed")


def _cmd_curve(args: argparse.Namespace) -> _Run:
    _check_runs("--runs", args.runs)
    grid = _grid_from_step("--grid-step", args.grid_step)
    h = _load_tree(args.input, "curve")
    with _named(args.input):
        curve = decay_curve(h, order=args.order, runs=args.runs, grid=grid, seed=args.seed)
    return [curve.to_text()], _option_rows(args, "input", "order", "runs", "grid_step", "seed")


def _cmd_randomize(args: argparse.Namespace) -> _Run:
    h = _load_tree(args.input, "randomize")
    rewired = rewire(h, args.fraction, args.order, random.Random(args.seed))
    return [hierarchy_to_text(rewired)], _option_rows(args, "input", "fraction", "order", "seed")


def _cmd_tree(args: argparse.Namespace) -> _Run:
    return [hierarchy_to_text(binary_tree(args.levels))], _option_rows(args, "levels")


def build_parser(parser_class: type = argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The `hiertag` parser; its subcommand parsers are of `parser_class` too."""
    parser = parser_class(
        prog="hiertag",
        description="Extract, evaluate and benchmark directed tag hierarchies "
        "from tag co-occurrence data.",
    )
    parser.add_argument("--version", action="version", version=f"hiertag {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="-", help="output file ('-' for stdout)")
        p.add_argument(
            "--manifest-out",
            default=None,
            help="manifest file (default: OUT.manifest, or stderr when writing to stdout)",
        )
        # accepted and ignored, so manifests of runs that passed it still replay
        p.add_argument("--threads", help=argparse.SUPPRESS)

    p = sub.add_parser("generate", help="generate a benchmark corpus from a hierarchy")
    p.add_argument("--hierarchy", required=True, help="edge-list file of the source hierarchy")
    p.add_argument("--objects", type=int, required=True, help="number of objects to generate")
    p.add_argument(
        "--tags-per-object",
        default="poisson:3",
        help="tags-per-object distribution: fixed:K or poisson:MEAN (truncated >= 1)",
    )
    p.add_argument("--p-rw", type=float, default=0.5, help="probability a tag comes from a random walk")
    p.add_argument("--walk", default="uniform:1:3", help="walk-length distribution: uniform:LO:HI")
    p.add_argument(
        "--profile",
        default="linear-depth",
        help="frequency profile: linear-depth or power-law:EXPONENT",
    )
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("extract", help="extract a hierarchy from an objects file")
    p.add_argument("input", help="objects file (one object per line, TAB-separated tags)")
    p.add_argument("--algorithm", required=True, choices=_EXTRACTORS)
    p.add_argument("--with-ids", action="store_true", help="first field of each line is an object id")
    p.add_argument("--omega", type=float, default=0.4, help="algorithm a: incoming-link threshold factor")
    p.add_argument("--z-threshold", type=float, default=10.0, help="algorithm b: z-score pruning threshold")
    p.add_argument(
        "--force-single-root",
        action="store_true",
        help="algorithm b: attach secondary roots under the most central root",
    )
    p.add_argument("--similarity-threshold", type=float, default=0.1, help="heymann: minimal cosine similarity")
    p.add_argument("--centrality", choices=CENTRALITY_KINDS, default="degree-strength", help="heymann: insertion order")
    p.add_argument("--t-subsume", type=float, default=0.8, help="schmitz: subsumption probability threshold")
    p.add_argument("--min-cooccurrence", type=int, default=10, help="schmitz: minimal pair count")
    common(p)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("evaluate", help="score a reconstructed hierarchy against the exact one")
    p.add_argument("exact", help="exact hierarchy edge list")
    p.add_argument("recon", help="reconstructed hierarchy edge list")
    p.add_argument("--lmi", action="store_true", help="also calibrate the level of meaningful information")
    p.add_argument("--curve-order", choices=REWIRING_ORDERS, default="random")
    p.add_argument("--curve-runs", type=int, default=10)
    p.add_argument("--curve-grid-step", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("curve", help="rewiring decay curve of a hierarchy")
    p.add_argument("input", help="hierarchy edge list")
    p.add_argument("--order", choices=REWIRING_ORDERS, default="random")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("randomize", help="rewire a fraction of a hierarchy's links")
    p.add_argument("input", help="hierarchy edge list")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--order", choices=REWIRING_ORDERS, default="random")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_randomize)

    p = sub.add_parser("tree", help="write a balanced binary tree edge list")
    p.add_argument("--levels", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_tree)

    return parser


def _manifest_lines(
    args: argparse.Namespace, argv: list[str], rows: list[tuple[str, object]], started: float
) -> Iterator[str]:
    # a generator, so `duration_s` is read only once the output is written
    rows = [
        ("subcommand", args.cmd),
        *rows,
        ("out", args.out),
        ("version", __version__),
        ("duration_s", f"{time.perf_counter() - started:.3f}"),
        ("argv", "\t".join(argv)),
    ]
    for key, value in rows:
        yield f"{key}\t{str(value).lower() if isinstance(value, bool) else value}\n"


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv[:1] == ["--manifest"]:
        if len(raw_argv) != 2:
            print("error: --manifest takes exactly one manifest file", file=sys.stderr)
            return 2
        try:
            raw_argv, args = _replay_args(raw_argv[1])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        args = build_parser().parse_args(raw_argv)
    started = time.perf_counter()
    manifest = args.manifest_out
    if manifest is None:
        manifest = f"{args.out}.manifest" if args.out != "-" else "-"
    try:
        if "-" not in (args.out, manifest) and os.path.abspath(manifest) == os.path.abspath(args.out):
            raise ValueError(f"--manifest-out {manifest!r} names the --out file")
        chunks, rows = args.handler(args)
        manifest_lines = _manifest_lines(args, raw_argv, rows, started)
        _write_files([(args.out, chunks, sys.stdout), (manifest, manifest_lines, sys.stderr)])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
