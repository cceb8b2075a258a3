"""Byte-level regression pins for every extractor and for calibration.

The extractor digests are sha256 of `hierarchy_to_text` of each extractor's
output on two fixed-seed benchmark corpora, recorded before the
co-occurrence network moved to a CSR matrix with vectorized kernels.
Tie-breaks in the extractors depend on exact z-score and similarity values,
so any change in rounding or ordering shows up here. The `schmitz_t0.2`
digests were recorded before the extractors handed parent arrays to
`Hierarchy.from_parents`; at the default threshold Schmitz gives no edges on
the linear-depth corpus, so they are the pins of its edge path.

The forest-join digests pin algorithm a's join of its local forest and
algorithm b's `force_single_root` join on a corpus where the join does real
work (hundreds of cleared roots), recorded before the join read root
entropies off the CSR row runs and found components by pointer doubling.

The calibration digests pin `rewire` and `decay_curve` bytes, recorded
before `rewire` moved from a per-link subtree search to a parent array. A
rewired tree depends on every `random.Random` call `rewire` makes, so any
change in the draw sequence shows up here.

The manifest digests pin every row of every subcommand's manifest except
`duration_s`, recorded before the rows moved from hand-written per-command
lists to one rule over the parsed options. The runs use relative paths
inside a temporary directory, so the `input`, `out` and `argv` rows are the
same on every machine.

The generator and DAG pins were recorded before `Hierarchy` moved from
name-keyed children and parents dicts to child positions, and before the
generator walked positions instead of names. The generated corpora depend on
every `random.Random` call the generator makes; the DAG digests pin the
order of `depths` (breadth-first) and `descendant_table` (reversed
topological), which `partition_nmi` sums in.

The loaded-network digests pin the CSR arrays `build_cooccurrence` makes from
a `hiertag generate` file read by `load_corpus`, recorded while the corpus
still held one tuple of tag ids per object and before the loader moved to
reading and interning blocks of text. The same objects with a comment header,
blank lines, CRLF line endings and object ids must give the same arrays.

The loaded-hierarchy digest pins the tags and child positions `load_hierarchy`
reads from a messy but valid file (a byte-order mark, CRLF and CR line ends,
comments, blank lines, duplicate edges, isolated tags, '#' inside a tag and
non-ASCII names), and the help digests pin the bytes of `hiertag --help` and
of each subcommand's `--help` at 80 columns. Both were recorded before hierarchy
files moved to the block reader and before the parser was built once per
process.
"""
from __future__ import annotations

import hashlib
import random
import sys

import pytest

from hiertag import (
    AlgoAParams,
    AlgoBParams,
    BenchmarkConfig,
    HeymannParams,
    Hierarchy,
    SchmitzParams,
    binary_tree,
    build_cooccurrence,
    decay_curve,
    descendant_table,
    extract_a,
    extract_b,
    extract_heymann,
    extract_schmitz,
    generate,
    hierarchy_to_text,
    link_ratios,
    load_corpus,
    load_hierarchy,
    nmi,
    partition_nmi,
    rewire,
)
from hiertag.cli import main

EXTRACTORS = {
    "a": extract_a,
    "b": extract_b,
    "heymann": extract_heymann,
    "heymann_closeness": lambda n: extract_heymann(n, HeymannParams(centrality_kind="closeness")),
    "schmitz": extract_schmitz,
    "schmitz_t0.2": lambda n: extract_schmitz(n, SchmitzParams(t_subsume=0.2)),
}

CORPORA = {
    "linear-depth": (
        6,
        BenchmarkConfig(object_count=20_000, p_random_walk=0.5, seed=1),
        {
            "a": "f256bb0dae5ffba8d53336181dbca3d1e6edbc81378530ace05df43834ebb9ac",
            "b": "2e3cfd34bf0e9f9f8f5149caf34144b8019bcde6b365550afb0b24518fe89c53",
            "heymann": "a877d3c9d10cd831d5c22dafeeea6cef3e24bdfe0522aaf9e255738f9e9f77d2",
            "heymann_closeness": "9fab68d3a0bafde9e86a311b2007060090698077f84ed5ce274642828613b010",
            "schmitz": "73273be471fdbfdb2e168300ab24365494ba1e971eba4ad296d3d8407237d1df",
            "schmitz_t0.2": "65dfbe0fe44e9bf67aea8d1e29d8932da27bb0b48ca25fa7d112ca7abde3d4e5",
        },
    ),
    "power-law": (
        7,
        BenchmarkConfig(
            object_count=20_000,
            p_random_walk=0.5,
            frequency_profile=("power-law", 1.2),
            seed=2,
        ),
        {
            "a": "d1444aaf6356a04e897ee821130aa059cf17150624bf34370a588b782dc06c5b",
            "b": "6941b44beeca8ec06b6aa2f7c04feca1bd06e83fec275822b91080b7833a7a46",
            "heymann": "820f051f8b6870b26805c99673f820730b273946f4ea648cb2af050d0e1633cd",
            "heymann_closeness": "7356921f5d612de30136a49fe8933eb6faedef1f3e6c0762bbfd3ff924cfa2b3",
            "schmitz": "3a9db6d50ecb3eca489d2fa1fc7a04d07713d25a83a9017f5fcf379e68f213b4",
            "schmitz_t0.2": "edd72b481da9881e061e13cfcfc5be0894bbf3ed6a841bbfed4a14b0d85e985b",
        },
    ),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_extractor_outputs_match_pinned_digests(corpus):
    levels, config, expected = CORPORA[corpus]
    network = build_cooccurrence(generate(binary_tree(levels), config))
    got = {
        name: hashlib.sha256(hierarchy_to_text(fn(network)).encode()).hexdigest()
        for name, fn in EXTRACTORS.items()
    }
    assert got == expected


# the 511-tag tree's corpus, 5,000 objects, seed 3: algorithm a's join clears
# 197 local roots from circular chains at omega 0.4 and 135 at omega 0.2, and
# algorithm b's forest is joined under its most central tag
JOIN_CONFIG = BenchmarkConfig(object_count=5_000, p_random_walk=0.5, seed=3)
JOINS = {
    "a_omega0.4": lambda n: extract_a(n, AlgoAParams(omega=0.4)),
    "a_omega0.2": lambda n: extract_a(n, AlgoAParams(omega=0.2)),
    "b_single_root": lambda n: extract_b(n, AlgoBParams(force_single_root=True)),
}
JOIN_DIGESTS = {
    "a_omega0.4": "c6d64f93ca2d9d661b552bd77311f26a603a1cb5c776c17aade0ee1014cd9529",
    "a_omega0.2": "73c4035d186fc5d0205180a045fcd69b5e8272ac08a9ab46e782c711317b40fb",
    "b_single_root": "2f961ab26c38f716514d2cb87e7f3d9b0241055f7937b3433c7b8a828852bc7f",
}


def test_forest_joins_match_pinned_digests():
    network = build_cooccurrence(generate(binary_tree(9), JOIN_CONFIG))
    got = {name: _sha256(hierarchy_to_text(fn(network))) for name, fn in JOINS.items()}
    assert got == JOIN_DIGESTS


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _random_tree(n, seed):
    """Tag k hangs under a uniformly drawn earlier tag; tags sort in k order."""
    rng = random.Random(seed)
    tags = [f"r{k:03d}" for k in range(n)]
    return Hierarchy(tags, [(tags[rng.randrange(k)], tags[k]) for k in range(1, n)])


TREES = {"binary": lambda: binary_tree(10), "random": lambda: _random_tree(300, 300)}

REWIRED = {
    ("binary", "leaf-first", 0.2): "b79f66aa1fede31373030dc505debcdac7e6a3c438d870b1fb4264f0ed4a7f93",
    ("binary", "leaf-first", 1.0): "982997a137706962781927e8649b43c60cc4976fe00405b57fc4c4af07e79e61",
    ("binary", "random", 0.2): "f81624f49c43e8c3ece3b98e628cef1b66ae2bb736205d681740b1a35c48934e",
    ("binary", "random", 1.0): "3236dc672b0b71af176d2383d24141842e82feef6d129ebc575b49b030db1fac",
    ("binary", "top-first", 0.2): "e8fbd78c0e6a2cda11d0ce683dec628a4439490e00b55a942be21f0de6abee80",
    ("binary", "top-first", 1.0): "7b202363c9a57738e7b55b7be4ced45983b1fd9e0c0a38abb2d99b80f229017c",
    ("random", "leaf-first", 0.2): "3eb571847656c3329b4d63053ab99d30900201b77b46cd070d2fe45ae804f061",
    ("random", "leaf-first", 1.0): "7a2ed7539c841e5a4cb6e9b6ea2a478be9f68a8c0aed8387714a9877c633df2a",
    ("random", "random", 0.2): "018b01a1d89dc464617bed80156cc9053d8311baa2ecfdfe7c1cd526fa13f418",
    ("random", "random", 1.0): "68b9565370a53f30fbd61b0c3063160758833fdab65512cc02b4f583cd68a65f",
    ("random", "top-first", 0.2): "c4a074fb522123e20ff39d58534f1f652181509ff1fdf3de3cac12425a64c32b",
    ("random", "top-first", 1.0): "81f79258771557279d510e9ab85d0fdcd9794c230928fe3bde93744bb2825167",
}

CURVES = {
    "leaf-first": "dfed416f7061a98fb3af504e26c14ccb6fc8d0d5bac470f21bcc623cc15bfbb2",
    "random": "7a5d16ac41cd4183c2aecfe933e317f1905a4c842e2df5bc0384efde155e09c0",
    "top-first": "11e16b55dc627bbf7ffc6590af59ac8458bf8f2a2f960145e3062d297e5d73fb",
}


@pytest.mark.parametrize("tree", sorted(TREES))
def test_rewired_trees_match_pinned_digests(tree):
    h = TREES[tree]()
    got = {
        (tree, order, f): _sha256(hierarchy_to_text(rewire(h, f, order, random.Random(11))))
        for (name, order, f) in REWIRED
        if name == tree
    }
    assert got == {key: digest for key, digest in REWIRED.items() if key[0] == tree}


@pytest.mark.parametrize("order", sorted(CURVES))
def test_decay_curves_match_pinned_digests(order):
    curve = decay_curve(binary_tree(8), order, runs=2, seed=5)
    assert _sha256(curve.to_text()) == CURVES[order]


# recorded with the randrange/rng.shuffle rewiring kernel and the two-pass
# parent-list bitsets, on the benchmark's 1,023-tag tree: one run per cell,
# the 0.05 grid in random order and the 0.1 grid in the depth orders
PAPER_SCALE_CURVES = {
    "leaf-first": "8405bea23b4dd8e574f62b08465c85573d2136bb5d8779722fa8f4f0bf283eb2",
    "random": "1773035337a9b11cc0462d6642e301327a501fd8d3a4899eb72ff54e565c0db7",
    "top-first": "ec3fa840fefaeadc3788048fccf861c1daaae8ac1b7a64c2c1f18e1be80cee97",
}
PAPER_SCALE_REWIRED = "e4f0a1c3b3cbca08b3dfaf3e57f6a97cfad04ae00e7c2200132b34b8f7b9bf4c"


@pytest.mark.parametrize("order", sorted(PAPER_SCALE_CURVES))
def test_paper_scale_decay_curves_match_pinned_digests(order):
    grid = tuple(i / 20 for i in range(21)) if order == "random" else tuple(i / 10 for i in range(11))
    curve = decay_curve(binary_tree(10), order, runs=1, grid=grid, seed=1)
    assert _sha256(curve.to_text()) == PAPER_SCALE_CURVES[order]


def test_paper_scale_rewired_tree_matches_pinned_digest():
    rewired = rewire(binary_tree(10), 0.2, "random", random.Random(1))
    assert _sha256(hierarchy_to_text(rewired)) == PAPER_SCALE_REWIRED


MANIFEST_RUNS = [
    ["tree", "--levels", "6", "--out", "exact.tsv"],
    [
        "generate", "--hierarchy", "exact.tsv", "--objects", "5000", "--seed", "1",
        "--out", "corpus.tsv",
    ],
    [
        "generate", "--hierarchy", "exact.tsv", "--objects", "3000",
        "--tags-per-object", "fixed:2", "--p-rw", "0.3", "--walk", "uniform:1:2",
        "--profile", "power-law:1.5", "--seed", "7", "--out", "corpus_pl.tsv",
    ],
    [
        "extract", "corpus.tsv", "--algorithm", "a", "--omega", "0.5", "--threads", "2",
        "--out", "recon_a.tsv",
    ],
    [
        "extract", "corpus.tsv", "--algorithm", "b", "--z-threshold", "5",
        "--force-single-root", "--out", "recon_b.tsv",
    ],
    [
        "extract", "corpus.tsv", "--algorithm", "heymann", "--centrality", "closeness",
        "--similarity-threshold", "0.2", "--out", "recon_heymann.tsv",
    ],
    [
        "extract", "corpus_pl.tsv", "--algorithm", "schmitz", "--t-subsume", "0.7",
        "--min-cooccurrence", "5", "--out", "recon_schmitz.tsv",
    ],
    ["evaluate", "exact.tsv", "recon_b.tsv", "--out", "report_b.tsv"],
    [
        "evaluate", "exact.tsv", "recon_heymann.tsv", "--lmi", "--curve-order", "leaf-first",
        "--curve-runs", "1", "--curve-grid-step", "0.25", "--seed", "3", "--out", "lmi.tsv",
    ],
    [
        "curve", "exact.tsv", "--order", "top-first", "--runs", "1", "--grid-step", "0.25",
        "--out", "curve.tsv",
    ],
    [
        "randomize", "exact.tsv", "--fraction", "0.2", "--order", "leaf-first", "--seed", "4",
        "--out", "random.tsv", "--manifest-out", "random.manifest",
    ],
]

MANIFESTS = {
    "corpus.tsv.manifest": "aefa7305f1ea39c7a25c62fc35fbdbddd829a52633392419ee3a4ed89a3e25ae",
    "corpus_pl.tsv.manifest": "0204c2e746c7e69c3f3e862b1c1e622621a1698ec4a65b0277c2ad08c0fb1ff0",
    "curve.tsv.manifest": "0d493b3d62abd5d36994b3605913b180d2c8a91df0e2645b91ce68a6af10e293",
    "exact.tsv.manifest": "28ac632e4fd20508c78ca5a0ad0b73a8037a4e7f358e4801f581f3995774fb5b",
    "lmi.tsv.manifest": "42715fad1a8e605b9ca11aecd695337b5ce4fd716a1eded3d41080bc8fafd6fd",
    "random.manifest": "dbbadd485f0b08282d6f8dae720b4fc644d33b7047d66301595a183f7ae338c4",
    "recon_a.tsv.manifest": "8af9525ce2f99b9484411a4ec1512e5af811435b0c0489ad1c41db3c4df397c4",
    "recon_b.tsv.manifest": "177f347fc9d9e0fcc3e75415d40159678c9ca47ab710def3b95072efc0d95f38",
    "recon_heymann.tsv.manifest": "b58eff37daaf0817f377eb9d5c69e49f1044f3182b4834516738ed86f8f2843a",
    "recon_schmitz.tsv.manifest": "f0907853965f83f6a477d71bffdc3bffcc325d41b874ccb686074d4cc3cbb7b2",
    "report_b.tsv.manifest": "2959f95ba9499de9e26610a4c5c061a3a4b98388b7c07ca37d734c4ac36be350",
    "stderr": "a310a0f4214630c9dd2717d622b5c121cb77eb3c4c29a8d268e007d8fadf7aca",
}


def _manifest_digest(text):
    return _sha256("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("duration_s\t")
    ))


def test_manifests_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in MANIFEST_RUNS:
        assert main(argv) == 0
    got = {
        path.name: _manifest_digest(path.read_text(encoding="utf-8"))
        for path in tmp_path.glob("*manifest")
    }
    capsys.readouterr()
    assert main(["tree", "--levels", "2"]) == 0
    got["stderr"] = _manifest_digest(capsys.readouterr().err)
    assert got == MANIFESTS


# `hiertag generate` bytes on the 63-tag tree, 5,000 objects, seed 3
GENERATE_CORPORA = {
    ("linear-depth", "fixed:2", "0"): "b6b589f5e809e6281960cd298757331f8672ac821787e612aefea06e38575084",
    ("linear-depth", "fixed:2", "1"): "f5044aeb48ce8a4b3fa7ae0c57f647637a490ce8f7bb34959ba2e837b50e7237",
    ("linear-depth", "poisson:3", "0"): "7cb9b653e2445e97b37e7c600d6b8d1b71ed884c0bf96ced0b5883f8800abf8d",
    ("linear-depth", "poisson:3", "1"): "9e067ad6e89e7d40740aad67f613ac99dcbc29e1cd88d98276beca76014c65d7",
    ("power-law:1.2", "fixed:2", "0"): "33f1c88ed971533549aba6e20551c3b078012956b493ef72295d1aa0d087ea6d",
    ("power-law:1.2", "fixed:2", "1"): "1f6949f5397e1a9ec611fa1722d988ae6aeebbfff8633214272b1d9d068c1aae",
    ("power-law:1.2", "poisson:3", "0"): "ea40bda169688b68fa7589a2d1eae8da7fed16a4268d233da06ff4ab712c9bd1",
    ("power-law:1.2", "poisson:3", "1"): "ba5e62bc255c78e3815b1019c808423e9982582a7767f262695185493f5f67c7",
}


@pytest.mark.parametrize("profile", ["linear-depth", "power-law:1.2"])
def test_generated_corpora_match_pinned_digests(profile, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tree", "--levels", "6", "--out", "exact.tsv"]) == 0
    got = {}
    for prof, count, p_rw in GENERATE_CORPORA:
        if prof != profile:
            continue
        argv = [
            "generate", "--hierarchy", "exact.tsv", "--objects", "5000", "--profile", prof,
            "--tags-per-object", count, "--p-rw", p_rw, "--seed", "3", "--out", "corpus.tsv",
        ]
        assert main(argv) == 0
        got[prof, count, p_rw] = hashlib.sha256((tmp_path / "corpus.tsv").read_bytes()).hexdigest()
    assert got == {key: d for key, d in GENERATE_CORPORA.items() if key[0] == profile}


def _random_dag(seed, n=60):
    """A multi-parent DAG with isolated tags: the k-th tag of one fixed,
    unsorted name order gets 0-3 parents among the tags before it. Names sort
    in neither construction nor topological order, and any two such DAGs are
    acyclic together."""
    rng = random.Random(seed)
    tags = [f"g{k * 37 % n:02d}" for k in range(n)]
    edges = [
        (tags[rng.randrange(k)], tags[k])
        for k in range(1, n)
        for _ in range(rng.choice((0, 1, 1, 2, 3)))
    ]
    return Hierarchy(tags, edges)


DAG_DIGESTS = {
    "text": "b39574e8358c7016716d9e2ae0b68fffe09c052f77f7830b2f71c231c4406c0f",
    "depths": "3a09f355139b1e20494e1ce8079c7946020de8018c784ce2587b437b8d04c671",
    "descendants": "c0231c3ac463c72b3e7ffbe6fc77c92a9c46a399772866ff6caf364428d34724",
}

# against a second DAG's reversal (inverted and unrelated links), and against
# half the exact links plus a third of the second DAG's (exact, acceptable,
# unrelated and missing links)
DAG_SCORES = {
    "mixed": (
        "0.3160213106042406",
        "0.31602131060424044",
        "LinkRatios(exact=0.6101694915254238, acceptable=0.6610169491525424, inverted=0.0, "
        "unrelated=0.3220338983050847, missing=0.01694915254237288)",
    ),
    "reversed": (
        "0.0",
        "0.0",
        "LinkRatios(exact=0.0, acceptable=0.0, inverted=0.16, unrelated=0.84, missing=0.0)",
    ),
}


def test_dag_traversals_match_pinned_digests():
    h = _random_dag(21)
    got = {
        "text": _sha256(hierarchy_to_text(h)),
        "depths": _sha256(repr(list(h.depths().items()))),
        # frozenset order follows string hashing, so each set is sorted
        "descendants": _sha256(repr([(t, sorted(s)) for t, s in descendant_table(h).items()])),
    }
    assert got == DAG_DIGESTS


@pytest.mark.parametrize("kind", sorted(DAG_SCORES))
def test_dag_scores_match_pinned_values(kind):
    exact, other = _random_dag(22), _random_dag(23)
    if kind == "reversed":
        edges = [(c, p) for p, c in other.edges]
    else:
        edges = sorted(exact.edges)[::2] + sorted(other.edges)[::3]
    recon = Hierarchy(exact.tags, edges)
    got = (
        repr(nmi(exact, recon)), repr(partition_nmi(exact, recon)), repr(link_ratios(exact, recon))
    )
    assert got == DAG_SCORES[kind]


# `hiertag generate` on the 63-tag tree, 5,000 objects, seed 3, loaded and counted
LOADED_NETWORK = {
    "names": "8752708b420725f566dadb0ba561f8a2a24f77c5382529de5249a57102de66cd",
    "freq": "a10262cf23bf8f24e1f31e6e844624ffea5932ec90317603ca278b2dbb51a25b",
    "indptr": "0f11e9bc092eeb2dc616f9736cbb983521b7045fb687e5430494896916d87391",
    "indices": "998cf691e96fdbcadf2998f1da102dc055d04e6f92fa72268bf0451787d4ab82",
    "weights": "7803e355ee1fb370a8d5d3a546de1ff2aa2246f6bd436bc0e231004862141a40",
}


def _network_digests(network):
    got = {"names": _sha256("\n".join(network.names)), "freq": _sha256(repr(network.freq))}
    for name in ("indptr", "indices", "weights"):
        got[name] = hashlib.sha256(getattr(network, name).astype("<i8").tobytes()).hexdigest()
    return got


def test_loaded_networks_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tree", "--levels", "6", "--out", "exact.tsv"]) == 0
    argv = ["generate", "--hierarchy", "exact.tsv", "--objects", "5000", "--seed", "3"]
    assert main(argv + ["--out", "corpus.tsv"]) == 0
    assert _network_digests(build_cooccurrence(load_corpus("corpus.tsv"))) == LOADED_NETWORK
    lines = (tmp_path / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    messy = ["# objects with ids", ""] + [
        f"obj{k}\t{line}" + ("\n \t" if k % 97 == 0 else "") for k, line in enumerate(lines)
    ]
    (tmp_path / "messy.tsv").write_bytes("\r\n".join(messy).encode("utf-8"))
    network = build_cooccurrence(load_corpus("messy.tsv", with_ids=True))
    assert _network_digests(network) == LOADED_NETWORK


# `hiertag generate` on the 1023-tag tree, seed 1: the paper-scale default
# run, and a run where each object draws 12 positions, most of them walk
# steps that revisit a tag, so repeats dominate. Each file is pinned by its
# bytes and by the arrays `build_cooccurrence` makes from it once loaded
PAPER_SCALE_RUNS = {
    "default": ["--objects", "50000"],
    "repeats": [
        "--objects", "7000", "--tags-per-object", "fixed:12", "--p-rw", "0.9",
        "--walk", "uniform:1:5", "--profile", "power-law:1.3",
    ],
}  # fmt: skip
PAPER_SCALE_CORPORA = {
    "default": "fd8fddba3262378121c64fad6e5fc18844dc18ed1ab38382d48a90a9dfbf3ddf",
    "repeats": "2e77473a9321bd3eae8fed389fa0170db18e3e1954e459f425cde8d96e609680",
}
PAPER_SCALE_NETWORKS = {
    "default": {
        "names": "0b744c71c462afc939968b44ff40ef43362d0364013d356c935a016d0ab53ca8",
        "freq": "821aa4c798eb7073f07a37fca0be0ac9c23cd9d6402cac952bdf733192d48875",
        "indptr": "3b022d7252141484ab95a943d72bed4d4ceeab03ce28759329aa665e9ff71ac5",
        "indices": "d84ecf9ce481701abdb17239727f3648c61057a114ca9547c25fe1a6323cdd7b",
        "weights": "3457a42bef31bd3b5fbdc9eed1c711650172cc1d8d17a064739814c217b871d6",
    },
    "repeats": {
        "names": "bb216d4663ad6040fb9b35c581d7769268388d86587cf62132826facc577fabd",
        "freq": "23089835634af5326345250596cf0acc37b3c90007267d8b8f2acde1360bd2b3",
        "indptr": "f3ca80905ecd59fce213d16dd842921cfd8d96d4cbda3f9287683c533d4d6647",
        "indices": "46915fdc125fac82a75e1090a4474352bf7c06f62b8f9eea4a7a38ea9bef7d4e",
        "weights": "693b1e2892daca993527cc22896478aeeaed2f552298f4ac937cf6885b81c0b6",
    },
}


@pytest.mark.parametrize("run", sorted(PAPER_SCALE_RUNS))
def test_paper_scale_corpora_match_pinned_digests(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tree", "--levels", "10", "--out", "exact.tsv"]) == 0
    argv = ["generate", "--hierarchy", "exact.tsv", *PAPER_SCALE_RUNS[run], "--seed", "1"]
    assert main(argv + ["--out", "corpus.tsv"]) == 0
    got = hashlib.sha256((tmp_path / "corpus.tsv").read_bytes()).hexdigest()
    assert got == PAPER_SCALE_CORPORA[run]
    network = build_cooccurrence(load_corpus("corpus.tsv"))
    assert _network_digests(network) == PAPER_SCALE_NETWORKS[run]


MESSY_HIERARCHY = (
    "\ufeff# hierarchy with every kind of line\r\n"
    "root\tchild\r\n"
    "\r\n"
    "root\tchild\r\n"
    "  \t \r\n"
    "\t# an indented comment\r\n"
    "root\tcaf\xe9\r"
    "caf\xe9\tna\xefve\r\n"
    "child\tgrand#child\r\n"
    "solo\r\n"
    "root\r\n"
    "\u03a9mega\r\n"
    "na\xefve\t\u03a9mega"
)
LOADED_HIERARCHY = "e02e523335da81d2f79afe2697c331ad587637e702a7e5f05a8fcc2190324f33"


def test_loaded_hierarchy_matches_pinned_digest(tmp_path):
    path = tmp_path / "messy.tsv"
    path.write_bytes(MESSY_HIERARCHY.encode("utf-8"))
    h = load_hierarchy(str(path))
    assert _sha256(repr((h.tags, h._children))) == LOADED_HIERARCHY


# argparse lays help out differently across Python versions; these bytes
# were recorded on Python 3.11
HELP = {
    (): "f50fff946b8b4095309a6b57e6d86dae201c40de168df0de8a9f62d86a0aec69",
    ("generate",): "809bf11f782b3b39a992f52ce8f4d949d7bf7118f8324fa92fa72398662cc7f2",
    ("extract",): "b228302a1460cfcb97c5fe16cdbdcb7449bd1b7c37945d3523876773cbd47dea",
    ("evaluate",): "228e27f770e28a52654bfbf580eed276f18bfd68ef03f46ffa35da1e67aee1dd",
    ("curve",): "fab38c2e300c45cd0dd372f6f6c85aae34eb7490cdbff3c1358709339f68b1c8",
    ("randomize",): "296fdddfcfbd9f8bceb3de153806cf2f21b1fb6ed52610b562f3d9eb30937f3c",
    ("tree",): "de78b18a93f278ae267a24cb14cc41e3100ea003391ae488fbb0b5bc881b1139",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help bytes recorded on Python 3.11")
def test_help_texts_match_pinned_digests(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for argv in HELP:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        got[argv] = _sha256(capsys.readouterr().out)
    assert got == HELP
