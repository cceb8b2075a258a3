"""The benchmark's workloads: paper-cli, wide-forest and calibrate.

Each workload has three parts:

* `setup` writes the ground-truth tree and any fixed inputs;
* `iterate` runs one untraced iteration through the package's public entry
  points (`hiertag.cli.main` in process, or the library API), times each
  step, then checks the outputs and counts attempted and failed operations;
* `traced` runs the same iteration again, decomposed into the public
  sub-steps those entry points call, with a span around each call. It
  returns deferred comparisons that the traced outputs equal the untraced
  ones bit for bit.

All work is single-threaded: no `--threads` flag and no `threads=` argument
is ever passed.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from hiertag import (
    SYNTHETIC_ROOT,
    AlgoAParams,
    AlgoBParams,
    BenchmarkConfig,
    DecayCurve,
    HeymannParams,
    Hierarchy,
    QualityReport,
    binary_tree,
    build_cooccurrence,
    corpus_from_object_lists,
    descendant_table,
    eigenvector_centrality,
    extract_a,
    extract_b,
    extract_heymann,
    extract_schmitz,
    generate,
    hierarchy_to_text,
    link_ratios,
    lmi,
    load_corpus,
    load_hierarchy,
    nmi,
    prune_network,
    rewire,
    save_hierarchy,
    strip_synthetic_root,
)
from hiertag.baselines import cosine_similarities
from hiertag.benchmark import (
    iter_object_tags,
    parse_count_distribution,
    parse_profile,
    parse_walk_length,
)
from hiertag.cli import main as cli_main
from hiertag.extract_a import select_parents, surviving_in_links
from hiertag.extract_b import CENTRALITY_ITERATIONS, centrality_rank
from hiertag.metrics import _isotonic_non_increasing
from hiertag.seeds import derive_seed

from spans import Tracer

CLI_SUBCOMMANDS = ("tree", "generate", "extract", "evaluate", "randomize", "curve")

# Generator settings, spelled out so the CLI call and the traced library
# call are built from the same strings.
TAGS_PER_OBJECT = "poisson:3"
P_RANDOM_WALK = "0.5"
WALK = "uniform:1:3"
PROFILE = "linear-depth"

# calibrate: the randomized tree's rewired share and the two curve grids
FRACTION = "0.2"
LMI_GRID_STEP = "0.05"
CURVE_GRID_STEP = "0.1"


def config(objects: int, seed: int) -> BenchmarkConfig:
    """The generator settings the CLI `generate` call is given, as a config."""
    return BenchmarkConfig(
        object_count=objects,
        p_random_walk=float(P_RANDOM_WALK),
        tags_per_object=parse_count_distribution(TAGS_PER_OBJECT),
        walk_length=parse_walk_length(WALK),
        frequency_profile=parse_profile(PROFILE),
        seed=seed,
    )


class Tally:
    """Operations attempted and failed; an operation fails if any check on it fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


@dataclass
class Iteration:
    """Timings and quality numbers of one untraced iteration."""

    wall_s: float
    steps: dict[str, float]
    cli_s: dict[str, float]
    cli_self_s: float
    cli_bytes: int
    quality: dict[str, float] = field(default_factory=dict)


def no_op() -> None:
    pass


class Steps:
    """Times the steps of one iteration; `before_step` runs, untimed, before each."""

    def __init__(self, before_step: Callable[[], None] = no_op) -> None:
        self.before_step = before_step
        self.start = time.perf_counter()
        self.steps: dict[str, float] = {}
        self.cli_s: dict[str, float] = {}
        self.cli_calls: list[tuple[str, float]] = []

    def time(self, step: str, fn: Callable, *args):
        self.before_step()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        self.steps[step] = self.steps.get(step, 0.0) + dt
        return result, dt

    def cli(self, step: str, argv: list[str]) -> int:
        code, dt = self.time(step, run_cli, argv)
        self.cli_s[argv[0]] = self.cli_s.get(argv[0], 0.0) + dt
        self.cli_calls.append((argv[argv.index("--out") + 1], dt))
        return code

    def finish(self) -> Iteration:
        """Stop the clock, then read what the CLI calls wrote.

        A call's self time is its time in `cli.main` minus the handler's
        `duration_s` from its manifest: argument parsing and the manifest.
        """
        wall = time.perf_counter() - self.start
        cli_self = 0.0
        cli_bytes = 0
        for out, dt in self.cli_calls:
            for path in (out, out + ".manifest"):
                if os.path.exists(path):
                    cli_bytes += os.path.getsize(path)
            duration = manifest_duration(out + ".manifest")
            if duration is not None:
                cli_self += dt - duration
        return Iteration(wall, self.steps, self.cli_s, cli_self, cli_bytes)


def manifest_duration(path: str) -> float | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.rstrip("\n").partition("\t")
                if key == "duration_s":
                    return float(value)
    except (OSError, ValueError):
        pass
    return None


def run_cli(argv: list[str]) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def grid(step: str) -> tuple[float, ...]:
    """The fraction grid the CLI builds from a --grid-step value."""
    points = round(1.0 / float(step))
    return tuple(i / points for i in range(points + 1))


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def parse_report(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        return {k: float(v) for k, v in (line.rstrip("\n").split("\t") for line in fh)}


def check_unit_interval(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{name} = {value!r} outside [0, 1]"]


def check_reconstruction(kind: str, h: Hierarchy, exact: Hierarchy) -> list[str]:
    """Tag set equals the exact tree's; algorithm a spans, algorithm b is a forest."""
    if SYNTHETIC_ROOT in h.tags and SYNTHETIC_ROOT not in exact.tags:
        h = strip_synthetic_root(h)
    problems = []
    if h.tags != exact.tags:
        problems.append("tag set differs from the exact tree's")
    if kind == "a" and not h.is_tree():
        problems.append("algorithm a did not return a spanning tree")
    if kind == "b" and not h.is_forest():
        problems.append("algorithm b did not return a forest")
    return problems


def check_loaded(kind: str, path: str, exact: Hierarchy) -> list[str]:
    try:
        h = load_hierarchy(path)
    except (OSError, ValueError) as exc:
        return [f"cannot load output: {exc}"]
    return check_reconstruction(kind, h, exact)


def check_curve(path: str, fractions: tuple[float, ...]) -> list[str]:
    try:
        rows = [line.split("\t") for line in read_bytes(path).decode().splitlines()]
        fs = [float(f) for f, _ in rows]
        vs = [float(v) for _, v in rows]
    except (OSError, ValueError) as exc:
        return [f"cannot parse curve: {exc}"]
    problems = []
    if len(fs) != len(fractions) or any(abs(a - b) > 1e-9 for a, b in zip(fs, fractions)):
        problems.append("curve fractions differ from the requested grid")
    if any(b > a for a, b in zip(vs, vs[1:])):
        problems.append("decay curve is not non-increasing")
    for v in vs:
        problems.extend(check_unit_interval("curve value", v))
    return problems


class Workload:
    name = ""
    # per-step figures printed in the report: (name, step or quality key, unit)
    stages: tuple[tuple[str, str, str], ...] = ()
    # quality numbers multiplied into the end-to-end `quality` metric. The
    # Schmitz hierarchy's NMI is 0 at the benchmark's sizes, so it is left out.
    quality_keys: tuple[str, ...] = ()
    # inputs per run, fixed so that every run of a seed times the same work;
    # several small inputs even out seed-to-seed swings in cost and score
    # better than one large one, and keep each timed step short
    inputs = 3

    def __init__(self) -> None:
        self.dir = ""

    def setup(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def corpus_bytes(self) -> int | None:
        return None

    def quality(self, its: list[Iteration]) -> float:
        """The product over quality keys of each key's mean over `its`.

        A product, so a relative loss in any one score is the same relative
        loss in the result, however high the others are.
        """
        return math.prod(statistics.fmean(it.quality[k] for it in its) for k in self.quality_keys)

    def iterate(
        self, tally: Tally, seed: int, before_step: Callable[[], None] = no_op
    ) -> tuple[Iteration, object]:
        raise NotImplementedError

    def traced(
        self, tr: Tracer, reference: object, seed: int
    ) -> list[tuple[str, Callable[[], bool]]]:
        raise NotImplementedError


# --- traced decompositions shared by the workloads ---------------------------


def traced_extract(
    tr: Tracer, network, kind: str, pending: list[tuple[str, Callable[[], bool]]]
) -> Hierarchy:
    """One extractor call, preceded by the public sub-steps it runs inside."""
    if kind == "a":
        strong = tr.call(
            "extract_a.surviving_in_links", surviving_in_links, network, AlgoAParams().omega
        )
        parents = tr.call("extract_a.select_parents", select_parents, strong)
        tr.gauge("extract_a.local_roots", parents.count(None))
        return tr.call("extract_a.extract_a", extract_a, network)
    if kind == "b":
        pruned = tr.call(
            "extract_b.prune_network", prune_network, network, AlgoBParams().z_threshold
        )
        tr.gauge("extract_b.pairs_kept", pruned.n_pairs)
        centrality = tr.call(
            "stats.eigenvector_centrality", eigenvector_centrality, pruned, CENTRALITY_ITERATIONS
        )
        tr.gauge("stats.centrality_iterations", centrality.iterations)
        order = tr.call("extract_b.centrality_rank", centrality_rank, pruned)
        h = tr.call("extract_b.extract_b", extract_b, network)
        tr.gauge("extract_b.roots", len(h.roots))
        rank = {network.names[i]: pos for pos, i in enumerate(order)}
        pending.append(
            ("extract_b parents outrank children", lambda: all(rank[p] > rank[c] for p, c in h.edges))
        )
        return h
    if kind == "heymann":
        tr.call("baselines.cosine_similarities", cosine_similarities, network)
        return tr.call("baselines.extract_heymann", extract_heymann, network)
    if kind == "heymann_closeness":
        return tr.call(
            "baselines.extract_heymann_closeness",
            extract_heymann,
            network,
            HeymannParams(centrality_kind="closeness"),
        )
    h = tr.call("baselines.extract_schmitz", extract_schmitz, network)
    tr.gauge("baselines.schmitz_edges", h.n_edges)
    return h


def traced_scores(tr: Tracer, exact: Hierarchy, recon: Hierarchy):
    ratios = tr.call("metrics.link_ratios", link_ratios, exact, recon)
    score = tr.call("metrics.nmi", nmi, exact, recon)
    tr.call("hierarchy.descendant_table", descendant_table, recon)
    return ratios, score


def traced_curve(
    tr: Tracer, exact: Hierarchy, order: str, runs: int, fractions: tuple[float, ...], seed: int
) -> DecayCurve:
    """A decay curve cell by cell: rewire then nmi, with the curve's own cell seeds."""
    scores = []
    for fi, f in enumerate(fractions):
        for run in range(runs):
            rng = random.Random(derive_seed(seed, "rewire", fi, run))
            rewired = tr.call("hierarchy.rewire", rewire, exact, f, order, rng)
            tr.count("hierarchy.rewired_links", int(f * exact.n_edges + 0.5))
            scores.append(tr.call("metrics.nmi", nmi, exact, rewired))
            tr.count("metrics.cells")
            if run == 0:
                tr.call("hierarchy.descendant_table", descendant_table, rewired)
    means = [sum(scores[fi * runs : (fi + 1) * runs]) / runs for fi in range(len(fractions))]
    return DecayCurve(fractions, tuple(_isotonic_non_increasing(means)), runs)


# --- workloads ---------------------------------------------------------------

ALGORITHMS = ("a", "b", "heymann", "schmitz")


class PaperCli(Workload):
    """README round trip on the paper's 1023-tag tree through in-process `cli.main` calls."""

    name = "paper-cli"
    inputs = 4
    stages = (
        ("generate_s", "generate", "s"),
        ("extract_a_s", "extract_a", "s"),
        ("extract_b_s", "extract_b", "s"),
        ("extract_heymann_s", "extract_heymann", "s"),
        ("extract_schmitz_s", "extract_schmitz", "s"),
        *((f"nmi_{alg}", f"nmi_{alg}", "score") for alg in ALGORITHMS),
    )
    quality_keys = tuple(f"nmi_{alg}" for alg in ALGORITHMS if alg != "schmitz")

    def __init__(self, levels: int = 10, objects: int = 50_000) -> None:
        super().__init__()
        self.levels = levels
        self.objects = objects

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self.exact_path = self.path("exact.tsv")
        self.exact = binary_tree(self.levels)
        save_hierarchy(self.exact, self.exact_path)

    def corpus_bytes(self) -> int | None:
        path = self.path("corpus.tsv")
        return os.path.getsize(path) if os.path.exists(path) else None

    def generate_argv(self, tree: str, out: str, seed: int) -> list[str]:
        return [
            "generate", "--hierarchy", tree, "--objects", str(self.objects),
            "--tags-per-object", TAGS_PER_OBJECT, "--p-rw", P_RANDOM_WALK,
            "--walk", WALK, "--profile", PROFILE, "--seed", str(seed), "--out", out,
        ]  # fmt: skip

    def iterate(
        self, tally: Tally, seed: int, before_step: Callable[[], None] = no_op
    ) -> tuple[Iteration, object]:
        tree, corpus = self.path("tree.tsv"), self.path("corpus.tsv")
        s = Steps(before_step)
        codes = {"tree": s.cli("tree", ["tree", "--levels", str(self.levels), "--out", tree])}
        codes["generate"] = s.cli("generate", self.generate_argv(tree, corpus, seed))
        for alg in ALGORITHMS:
            argv = ["extract", corpus, "--algorithm", alg, "--out", self.path(f"{alg}.tsv")]
            codes[f"extract_{alg}"] = s.cli(f"extract_{alg}", argv)
        for alg in ALGORITHMS:
            argv = ["evaluate", self.exact_path, self.path(f"{alg}.tsv"), "--out", self.path(f"{alg}.eval")]
            codes[f"evaluate_{alg}"] = s.cli(f"evaluate_{alg}", argv)
        it = s.finish()

        problems = {op: [] if code == 0 else [f"exit code {code}"] for op, code in codes.items()}
        if not problems["tree"] and read_bytes(tree) != read_bytes(self.exact_path):
            problems["tree"].append("tree differs from the exact tree")
        if not problems["generate"]:
            with open(corpus, "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != self.objects:
                problems["generate"].append(f"{lines} objects written, {self.objects} asked for")
        for alg in ALGORITHMS:
            op, out = f"extract_{alg}", self.path(f"{alg}.tsv")
            if not problems[op]:
                problems[op] += check_loaded(alg, out, self.exact)
            op = f"evaluate_{alg}"
            if not problems[op]:
                report = parse_report(self.path(f"{alg}.eval"))
                it.quality[f"nmi_{alg}"] = report["nmi"]
                problems[op] += check_unit_interval("nmi", report["nmi"])
        for op, found in problems.items():
            tally.record(op, found)
        return it, None

    def traced(
        self, tr: Tracer, reference: object, seed: int
    ) -> list[tuple[str, Callable[[], bool]]]:
        pending: list[tuple[str, Callable[[], bool]]] = []
        tree_text = hierarchy_to_text(tr.call("hierarchy.binary_tree", binary_tree, self.levels))
        tree = self.path("tree.tsv")
        pending.append(("tree", lambda: tree_text.encode() == read_bytes(tree)))

        source = tr.call("hierarchy.load_hierarchy", load_hierarchy, tree)
        with tr.span("benchmark.iter_object_tags"):
            objects = list(iter_object_tags(source, config(self.objects, seed)))
        tr.count("benchmark.objects", len(objects))
        corpus = self.path("traced-corpus.tsv")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(tags) + "\n" for tags in objects)
        del objects
        pending.append(
            ("generate", lambda: file_digest(corpus) == file_digest(self.path("corpus.tsv")))
        )

        for alg in ALGORITHMS:
            loaded = tr.call("corpus.load_corpus", load_corpus, corpus)
            tr.count("corpus.bytes_read", os.path.getsize(corpus))
            network = tr.call("corpus.build_cooccurrence", build_cooccurrence, loaded)
            tr.gauge("corpus.tags", network.n_tags)
            tr.gauge("corpus.pairs", network.n_pairs)
            text = hierarchy_to_text(traced_extract(tr, network, alg, pending))
            out = self.path(f"{alg}.tsv")
            pending.append((f"extract {alg}", lambda t=text, o=out: t.encode() == read_bytes(o)))

        for alg in ALGORITHMS:
            exact = tr.call("hierarchy.load_hierarchy", load_hierarchy, self.exact_path)
            recon = tr.call("hierarchy.load_hierarchy", load_hierarchy, self.path(f"{alg}.tsv"))
            if SYNTHETIC_ROOT in recon.tags and SYNTHETIC_ROOT not in exact.tags:
                recon = strip_synthetic_root(recon)
            ratios, score = traced_scores(tr, exact, recon)
            text = QualityReport(ratios, score, None, exact.n_tags, recon.n_edges).to_text()
            out = self.path(f"{alg}.eval")
            pending.append((f"evaluate {alg}", lambda t=text, o=out: t.encode() == read_bytes(o)))
        return pending


WIDE_EXTRACTORS: tuple[tuple[str, Callable], ...] = (
    ("a", extract_a),
    ("b", extract_b),
    ("heymann", extract_heymann),
    (
        "heymann_closeness",
        lambda network: extract_heymann(network, HeymannParams(centrality_kind="closeness")),
    ),
    ("schmitz", extract_schmitz),
)


class WideForest(Workload):
    """Library API on a wide tree: many sparse tags, one co-occurrence count."""

    name = "wide-forest"
    # algorithm a's NMI swings most by seed here
    inputs = 6
    stages = (
        ("generate_s", "generate", "s"),
        ("extract_a_s", "extract_a", "s"),
        ("extract_b_s", "extract_b", "s"),
        ("extract_heymann_s", "extract_heymann", "s"),
        ("extract_heymann_closeness_s", "extract_heymann_closeness", "s"),
        ("extract_schmitz_s", "extract_schmitz", "s"),
        *((f"nmi_{kind}", f"nmi_{kind}", "score") for kind, _ in WIDE_EXTRACTORS),
    )
    quality_keys = tuple(f"nmi_{kind}" for kind, _ in WIDE_EXTRACTORS if kind != "schmitz")

    def __init__(self, levels: int = 11, objects: int = 40_000) -> None:
        super().__init__()
        self.levels = levels
        self.objects = objects

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self.exact = binary_tree(self.levels)
        save_hierarchy(self.exact, self.path("exact.tsv"))

    def iterate(
        self, tally: Tally, seed: int, before_step: Callable[[], None] = no_op
    ) -> tuple[Iteration, object]:
        s = Steps(before_step)
        corpus, _ = s.time("generate", generate, self.exact, config(self.objects, seed))
        network, _ = s.time("build_cooccurrence", build_cooccurrence, corpus)
        results = {}
        for kind, fn in WIDE_EXTRACTORS:
            results[kind], _ = s.time(f"extract_{kind}", fn, network)
        scores = {}
        for kind, h in results.items():
            recon = strip_synthetic_root(h)
            ratios, _ = s.time(f"link_ratios_{kind}", link_ratios, self.exact, recon)
            score, _ = s.time(f"nmi_{kind}", nmi, self.exact, recon)
            scores[kind] = (ratios, score)
        it = s.finish()

        generated = []
        if corpus.n_objects != self.objects:
            generated.append(f"{corpus.n_objects} objects generated, {self.objects} asked for")
        tally.record("generate", generated)
        counted = [] if network.n_tags == corpus.n_tags else ["network and corpus tag counts differ"]
        tally.record("build_cooccurrence", counted)
        for kind, h in results.items():
            tally.record(f"extract_{kind}", check_reconstruction(kind, h, self.exact))
        for kind, (ratios, score) in scores.items():
            it.quality[f"nmi_{kind}"] = score
            tally.record(f"evaluate_{kind}", check_unit_interval("nmi", score))
        return it, (corpus, network, results, scores)

    def traced(
        self, tr: Tracer, reference: object, seed: int
    ) -> list[tuple[str, Callable[[], bool]]]:
        ref_corpus, ref_network, ref_results, ref_scores = reference
        pending: list[tuple[str, Callable[[], bool]]] = []
        with tr.span("benchmark.iter_object_tags"):
            objects = list(iter_object_tags(self.exact, config(self.objects, seed)))
        tr.count("benchmark.objects", len(objects))
        corpus = tr.call("corpus.corpus_from_object_lists", corpus_from_object_lists, objects)
        del objects
        pending.append(("generate", lambda: corpus == ref_corpus))
        network = tr.call("corpus.build_cooccurrence", build_cooccurrence, corpus)
        tr.gauge("corpus.tags", network.n_tags)
        tr.gauge("corpus.pairs", network.n_pairs)
        pending.append(("build_cooccurrence", lambda: network.adj == ref_network.adj))
        for kind, _ in WIDE_EXTRACTORS:
            h = traced_extract(tr, network, kind, pending)
            pending.append((f"extract {kind}", lambda h=h, k=kind: h == ref_results[k]))
            ratios, score = traced_scores(tr, self.exact, strip_synthetic_root(h))
            pending.append(
                (f"evaluate {kind}", lambda r=ratios, s=score, k=kind: (r, s) == ref_scores[k])
            )
        return pending


class Calibrate(Workload):
    """Rewiring decay curves and LMI through `cli.main`: no corpus work at all."""

    name = "calibrate"
    stages = (
        ("evaluate_lmi_s", "evaluate_lmi", "s"),
        ("curve_top_first_s", "curve_top-first", "s"),
        ("curve_leaf_first_s", "curve_leaf-first", "s"),
        ("lmi", "lmi", "score"),
    )
    # the NMI of one randomized tree swings with which links the seed picks;
    # LMI calibrates it against the decay curve and is the steadier score
    quality_keys = ("lmi",)
    ORDERS = ("top-first", "leaf-first")

    def __init__(self, levels: int = 10, runs: int = 1) -> None:
        super().__init__()
        self.levels = levels
        self.runs = runs

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self.exact_path = self.path("exact.tsv")
        self.exact = binary_tree(self.levels)
        save_hierarchy(self.exact, self.exact_path)

    def iterate(
        self, tally: Tally, seed: int, before_step: Callable[[], None] = no_op
    ) -> tuple[Iteration, object]:
        seed = str(seed)
        rand, report = self.path("randomized.tsv"), self.path("randomized.eval")
        s = Steps(before_step)
        codes = {
            "randomize": s.cli(
                "randomize",
                ["randomize", self.exact_path, "--fraction", FRACTION, "--order", "random",
                 "--seed", seed, "--out", rand],
            ),
            "evaluate_lmi": s.cli(
                "evaluate_lmi",
                ["evaluate", self.exact_path, rand, "--lmi", "--curve-order", "random",
                 "--curve-runs", str(self.runs), "--curve-grid-step", LMI_GRID_STEP,
                 "--seed", seed, "--out", report],
            ),
        }  # fmt: skip
        for order in self.ORDERS:
            argv = [
                "curve", self.exact_path, "--order", order, "--runs", str(self.runs),
                "--grid-step", CURVE_GRID_STEP, "--seed", seed,
                "--out", self.path(f"{order}.curve"),
            ]  # fmt: skip
            codes[f"curve_{order}"] = s.cli(f"curve_{order}", argv)
        it = s.finish()

        problems = {op: [] if code == 0 else [f"exit code {code}"] for op, code in codes.items()}
        if not problems["randomize"]:
            problems["randomize"] += check_loaded("a", rand, self.exact)
        if not problems["evaluate_lmi"]:
            values = parse_report(report)
            it.quality["nmi_randomized"] = values["nmi"]
            it.quality["lmi"] = values["lmi"]
            for key in ("nmi", "lmi"):
                problems["evaluate_lmi"] += check_unit_interval(key, values[key])
        for order in self.ORDERS:
            op, out = f"curve_{order}", self.path(f"{order}.curve")
            if not problems[op]:
                problems[op] += check_curve(out, grid(CURVE_GRID_STEP))
        for op, found in problems.items():
            tally.record(op, found)
        return it, None

    def traced(
        self, tr: Tracer, reference: object, seed: int
    ) -> list[tuple[str, Callable[[], bool]]]:
        pending: list[tuple[str, Callable[[], bool]]] = []
        exact = tr.call("hierarchy.load_hierarchy", load_hierarchy, self.exact_path)
        fraction = float(FRACTION)
        rewired = tr.call("hierarchy.rewire", rewire, exact, fraction, "random", random.Random(seed))
        tr.count("hierarchy.rewired_links", int(fraction * exact.n_edges + 0.5))
        text = hierarchy_to_text(rewired)
        rand = self.path("randomized.tsv")
        pending.append(("randomize", lambda t=text: t.encode() == read_bytes(rand)))

        exact = tr.call("hierarchy.load_hierarchy", load_hierarchy, self.exact_path)
        recon = tr.call("hierarchy.load_hierarchy", load_hierarchy, rand)
        ratios, score = traced_scores(tr, exact, recon)
        curve = traced_curve(tr, exact, "random", self.runs, grid(LMI_GRID_STEP), seed)
        level = lmi(score, curve)
        report = QualityReport(ratios, score, level, exact.n_tags, recon.n_edges).to_text()
        out = self.path("randomized.eval")
        pending.append(("evaluate --lmi", lambda t=report, o=out: t.encode() == read_bytes(o)))

        for order in self.ORDERS:
            h = tr.call("hierarchy.load_hierarchy", load_hierarchy, self.exact_path)
            text = traced_curve(
                tr, h, order, self.runs, grid(CURVE_GRID_STEP), seed
            ).to_text()
            out = self.path(f"{order}.curve")
            pending.append((f"curve {order}", lambda t=text, o=out: t.encode() == read_bytes(o)))
        return pending


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "paper-cli": PaperCli,
    "wide-forest": WideForest,
    "calibrate": Calibrate,
}


# --- per-layer metrics -------------------------------------------------------

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("benchmark.iter_object_tags_s", "s"),
    ("benchmark.objects", "count"),
    ("corpus.load_corpus_s", "s"),
    ("corpus.bytes_read", "bytes"),
    ("corpus.corpus_from_object_lists_s", "s"),
    ("corpus.build_cooccurrence_s", "s"),
    ("corpus.tags", "count"),
    ("corpus.pairs", "count"),
    ("extract_b.prune_network_s", "s"),
    ("extract_b.pairs_kept", "count"),
    ("extract_b.kept_ratio", "ratio"),
    ("extract_b.centrality_rank_s", "s"),
    ("stats.eigenvector_centrality_s", "s"),
    ("stats.centrality_iterations", "count"),
    ("extract_b.sweep_self_s", "s"),
    ("extract_b.roots", "count"),
    ("extract_a.surviving_in_links_s", "s"),
    ("extract_a.select_parents_s", "s"),
    ("extract_a.self_s", "s"),
    ("extract_a.local_roots", "count"),
    ("baselines.cosine_similarities_s", "s"),
    ("baselines.heymann_self_s", "s"),
    ("baselines.closeness_extra_s", "s"),
    ("baselines.extract_schmitz_s", "s"),
    ("baselines.schmitz_edges", "count"),
    ("hierarchy.load_hierarchy_s", "s"),
    ("hierarchy.descendant_table_s", "s"),
    ("hierarchy.rewire_s", "s"),
    ("hierarchy.rewired_links", "count"),
    ("metrics.nmi_s", "s"),
    ("metrics.link_ratios_s", "s"),
    ("metrics.cells", "count"),
    *((f"cli.main_s.{sub}", "s") for sub in CLI_SUBCOMMANDS),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tr: Tracer, untraced: Iteration, traced_wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced iteration, keyed as in PER_LAYER.

    Times are totals per iteration except the per-call means of
    descendant_table, rewire and nmi. A layer a workload never calls reads 0.
    """
    t, g, c = tr.total, tr.gauges.get, tr.counters.get
    pairs = g("corpus.pairs", 0)
    values = {
        "benchmark.iter_object_tags_s": t("benchmark.iter_object_tags"),
        "benchmark.objects": c("benchmark.objects", 0),
        "corpus.load_corpus_s": t("corpus.load_corpus"),
        "corpus.bytes_read": c("corpus.bytes_read", 0),
        "corpus.corpus_from_object_lists_s": t("corpus.corpus_from_object_lists"),
        "corpus.build_cooccurrence_s": t("corpus.build_cooccurrence"),
        "corpus.tags": g("corpus.tags", 0),
        "corpus.pairs": pairs,
        "extract_b.prune_network_s": t("extract_b.prune_network"),
        "extract_b.pairs_kept": g("extract_b.pairs_kept", 0),
        "extract_b.kept_ratio": g("extract_b.pairs_kept", 0) / pairs if pairs else 0.0,
        "extract_b.centrality_rank_s": t("extract_b.centrality_rank"),
        "stats.eigenvector_centrality_s": t("stats.eigenvector_centrality"),
        "stats.centrality_iterations": g("stats.centrality_iterations", 0),
        "extract_b.sweep_self_s": tr.self_time(
            "extract_b.extract_b", ("extract_b.prune_network", "extract_b.centrality_rank")
        ),
        "extract_b.roots": g("extract_b.roots", 0),
        "extract_a.surviving_in_links_s": t("extract_a.surviving_in_links"),
        "extract_a.select_parents_s": t("extract_a.select_parents"),
        "extract_a.self_s": tr.self_time(
            "extract_a.extract_a", ("extract_a.surviving_in_links", "extract_a.select_parents")
        ),
        "extract_a.local_roots": g("extract_a.local_roots", 0),
        "baselines.cosine_similarities_s": t("baselines.cosine_similarities"),
        "baselines.heymann_self_s": tr.self_time(
            "baselines.extract_heymann", ("baselines.cosine_similarities",)
        ),
        "baselines.closeness_extra_s": (
            tr.self_time("baselines.extract_heymann_closeness", ("baselines.extract_heymann",))
            if tr.calls("baselines.extract_heymann_closeness")
            else 0.0
        ),
        "baselines.extract_schmitz_s": t("baselines.extract_schmitz"),
        "baselines.schmitz_edges": g("baselines.schmitz_edges", 0),
        "hierarchy.load_hierarchy_s": t("hierarchy.load_hierarchy"),
        "hierarchy.descendant_table_s": tr.per_call("hierarchy.descendant_table"),
        "hierarchy.rewire_s": tr.per_call("hierarchy.rewire"),
        "hierarchy.rewired_links": c("hierarchy.rewired_links", 0),
        "metrics.nmi_s": tr.per_call("metrics.nmi"),
        "metrics.link_ratios_s": t("metrics.link_ratios"),
        "metrics.cells": c("metrics.cells", 0),
        "cli.self_s": untraced.cli_self_s,
        "cli.bytes_written": untraced.cli_bytes,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced.wall_s,
    }
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main_s.{sub}"] = untraced.cli_s.get(sub, 0.0)
    return values
