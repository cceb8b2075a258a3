from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hiertag.benchmark import (
    CHUNK_OBJECTS,
    BenchmarkConfig,
    _profile_table,
    _profile_weights,
    generate,
    iter_object_tags,
    parse_count_distribution,
    parse_profile,
    parse_walk_length,
)
from hiertag.cli import main
from hiertag.corpus import corpus_from_object_lists
from hiertag.hierarchy import Hierarchy, binary_tree, load_hierarchy, save_hierarchy
from hiertag.seeds import derive_seed


def _weights_by_name(h, kind, rng=None):
    """`_profile_weights` keyed by tag name."""
    return dict(zip(h.tags, _profile_weights(h, kind, rng)))


def _chain():
    return Hierarchy(("a", "b", "c"), (("a", "b"), ("b", "c")))


def test_parse_count_distribution():
    assert parse_count_distribution("fixed:2") == ("fixed", 2)
    assert parse_count_distribution("poisson:3") == ("poisson", 3.0)


def test_parse_count_distribution_rejects_bad_input():
    with pytest.raises(ValueError, match="fixed tag count"):
        parse_count_distribution("fixed:0")
    # rejected on parsing, before any object would draw its billion tags
    assert parse_count_distribution("fixed:1000") == ("fixed", 1000)
    with pytest.raises(ValueError, match="fixed tag count is too large: 1001 > 1000"):
        parse_count_distribution("fixed:1001")
    with pytest.raises(ValueError, match="fixed tag count is too large: 1000000000 > 1000"):
        parse_count_distribution("fixed:1000000000")
    with pytest.raises(ValueError, match="poisson mean"):
        parse_count_distribution("poisson:0")
    with pytest.raises(ValueError, match="unknown tags-per-object"):
        parse_count_distribution("geometric:2")


def test_parse_walk_length():
    assert parse_walk_length("uniform:1:3") == ("uniform", 1, 3)


def test_parse_walk_length_rejects_bad_input():
    with pytest.raises(ValueError, match="walk length bounds"):
        parse_walk_length("uniform:0:3")
    with pytest.raises(ValueError, match="walk length bounds"):
        parse_walk_length("uniform:3:1")
    with pytest.raises(ValueError, match="unknown walk-length"):
        parse_walk_length("normal:1:3")
    # rejected on parsing, before any walk would take its billion steps
    assert parse_walk_length("uniform:1:1000") == ("uniform", 1, 1000)
    with pytest.raises(ValueError, match="walk length is too large: 1001 > 1000"):
        parse_walk_length("uniform:1:1001")
    with pytest.raises(ValueError, match="walk length is too large: 1000000000 > 1000"):
        parse_walk_length("uniform:1000000000:1000000000")


def test_parse_profile():
    assert parse_profile("linear-depth") == ("linear-depth",)
    assert parse_profile("power-law:1.2") == ("power-law", 1.2)
    # bare power-law defaults to the classic Zipf exponent
    assert parse_profile("power-law") == ("power-law", 2.0)


def test_parse_profile_rejects_bad_input():
    with pytest.raises(ValueError, match="exponent"):
        parse_profile("power-law:0")
    with pytest.raises(ValueError, match="unknown frequency profile"):
        parse_profile("zipf")


def test_config_validation():
    with pytest.raises(ValueError, match="object_count"):
        BenchmarkConfig(object_count=0, p_random_walk=0.5)
    with pytest.raises(ValueError, match="p_random_walk"):
        BenchmarkConfig(object_count=10, p_random_walk=1.5)


@pytest.mark.parametrize(
    "descriptors, message",
    [
        ({"tags_per_object": ("poisson", 0.0)}, "poisson mean must be > 0"),
        ({"tags_per_object": ("poisson", float("nan"))}, "poisson mean must be > 0"),
        ({"tags_per_object": ("fixed", 0)}, "fixed tag count must be >= 1"),
        ({"tags_per_object": ("binomial", 3)}, "unknown tags-per-object distribution"),
        ({"walk_length": ("uniform", 3, 1)}, "walk length bounds must satisfy 1 <= lo <= hi"),
        ({"frequency_profile": ("power-law", -1.0)}, "power-law exponent must be > 0"),
        ({"frequency_profile": ("zipf", 2.0)}, "unknown frequency profile"),
        ({"tags_per_object": ("fixed", 10**9)}, "fixed tag count is too large"),
        ({"walk_length": ("uniform", 1, 10**9)}, "walk length is too large"),
    ],
)
def test_config_rejects_bad_descriptors(descriptors, message):
    # each of these once hung, silently changed or failed mid-generation
    with pytest.raises(ValueError, match=message):
        BenchmarkConfig(object_count=5, p_random_walk=0.5, **descriptors)


@pytest.mark.parametrize("mean", [1e-300, 1e-16, 1.6e-16, 1e-9, 9.9e-4])
def test_poisson_mean_too_small_to_draw_a_tag_is_rejected(mean):
    # an object takes about 1/mean draws to get a tag: below about 1.7e-16
    # the wait never ends, and at 1e-9 it did not end within 10 s
    with pytest.raises(ValueError, match="poisson mean is too small"):
        parse_count_distribution(f"poisson:{mean!r}")
    with pytest.raises(ValueError, match="poisson mean is too small"):
        BenchmarkConfig(object_count=5, p_random_walk=0.5, tags_per_object=("poisson", mean))


def test_smallest_drawable_poisson_mean_is_accepted():
    assert parse_count_distribution("poisson:1e-3") == ("poisson", 1e-3)


@pytest.mark.parametrize("mean", [709.0, 800.0, 1e6, math.inf])
def test_poisson_mean_whose_stopping_limit_underflows_is_rejected(mean):
    # Knuth's draw stops at exp(-mean), which is subnormal or 0 above about
    # 708.4: the draws then all stop near 745 tags whatever the mean
    with pytest.raises(ValueError, match="poisson mean is too large"):
        parse_count_distribution(f"poisson:{mean!r}")
    with pytest.raises(ValueError, match="poisson mean is too large"):
        BenchmarkConfig(object_count=5, p_random_walk=0.5, tags_per_object=("poisson", mean))


def test_largest_drawable_poisson_mean_is_accepted():
    assert parse_count_distribution("poisson:708") == ("poisson", 708.0)


def test_config_keeps_parsed_descriptors():
    config = BenchmarkConfig(
        object_count=5,
        p_random_walk=0.5,
        tags_per_object=("poisson", 2),
        frequency_profile=("power-law",),
    )
    assert config.tags_per_object == ("poisson", 2.0)
    assert config.frequency_profile == ("power-law", 2.0)


def test_bare_power_law_config_generates_the_default_exponent():
    # ('power-law',) passed validation but generate() then read a missing exponent
    h = binary_tree(3)
    bare = BenchmarkConfig(object_count=400, p_random_walk=0.5, frequency_profile=("power-law",))
    full = BenchmarkConfig(
        object_count=400, p_random_walk=0.5, frequency_profile=("power-law", 2.0)
    )
    assert generate(h, bare) == generate(h, full)


def _rejection_draw(getrandbits, k):
    """The generator's inlined bounded draw: k's bit length in bits, drawn
    again while the result is >= k."""
    bits = k.bit_length()
    r = getrandbits(bits)
    while r >= k:
        r = getrandbits(bits)
    return r


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_randbelow_draws_what_randrange_and_randint_draw(seed):
    # randrange(k) and randint(lo, lo + k - 1) - lo both reduce to
    # _randbelow(k); the generator inlines the getrandbits rejection loop that
    # _randbelow runs on a plain random.Random, checked against randrange below
    widths = [1, 2, 3, 5, 7, 8, 100, 2**31 + 5, 2**64 + 3] * 20
    fast, public = random.Random(seed), random.Random(seed)
    for i, k in enumerate(widths):
        assert fast._randbelow(k) == public.randrange(k)
        lo = i % 4
        assert lo + fast._randbelow(k) == public.randint(lo, lo + k - 1)
    assert fast.getstate() == public.getstate()
    loop, public = random.Random(seed), random.Random(seed)
    for k in list(range(1, 71)) * 5:
        assert _rejection_draw(loop.getrandbits, k) == public.randrange(k)
    assert loop.getstate() == public.getstate()


def _reference_objects(h, config):
    """The generator loop written with the public draws: randint(lo, hi) for
    a walk's length and randrange(len(nb)) for each of its steps."""
    profile = _weights_by_name(
        h, config.frequency_profile, rng=random.Random(derive_seed(config.seed, "profile"))
    )
    cum = list(accumulate(profile[t] for t in h.tags))
    nbrs = h.undirected_neighbors()
    kind, k = config.tags_per_object
    _, w_lo, w_hi = config.walk_length

    def profile_draw(rng):
        return min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)

    out = []
    for ci, start in enumerate(range(0, config.object_count, CHUNK_OBJECTS)):
        rng = random.Random(derive_seed(config.seed, "objects", ci))
        for _ in range(min(CHUNK_OBJECTS, config.object_count - start)):
            n_t = k if kind == "fixed" else 0
            while n_t < 1:
                n_t, p = 0, rng.random()
                while p > math.exp(-k):
                    n_t += 1
                    p *= rng.random()
            first = profile_draw(rng)
            drawn = [first]
            for _ in range(n_t - 1):
                if rng.random() < config.p_random_walk:
                    cur = first
                    for _ in range(rng.randint(w_lo, w_hi)):
                        nb = nbrs[cur]
                        if nb:
                            cur = nb[rng.randrange(len(nb))]
                    drawn.append(cur)
                else:
                    drawn.append(profile_draw(rng))
            out.append([h.tags[i] for i in dict.fromkeys(drawn)])
    return out


@st.composite
def generator_hierarchies(draw, max_tags=24):
    """A random forest (one parent at most) or DAG (up to three). Each tag
    picks its parents among the first `reach` tags before it, so a small reach
    makes hubs with more than 8 neighbours; tags no one picks and that pick
    none stay isolated."""
    n = draw(st.integers(1, max_tags))
    reach = draw(st.integers(1, n))
    most = draw(st.sampled_from([1, 3]))
    tags = [f"t{k:02d}" for k in range(n)]
    edges = [
        (tags[p], tags[j])
        for j in range(1, n)
        for p in draw(st.lists(st.integers(0, min(j, reach) - 1), max_size=most, unique=True))
    ]
    return Hierarchy(tags, edges)


@st.composite
def generator_configs(draw):
    if draw(st.booleans()):
        count = ("fixed", draw(st.integers(1, 6)))
    else:
        count = ("poisson", draw(st.floats(0.5, 6.0)))
    w_lo, width = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    return BenchmarkConfig(
        # half the runs span two chunks
        object_count=draw(st.integers(1, 60) | st.integers(CHUNK_OBJECTS + 1, CHUNK_OBJECTS + 99)),
        p_random_walk=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tags_per_object=count,
        walk_length=("uniform", w_lo, w_lo + width - 1),
        frequency_profile=draw(st.sampled_from([("linear-depth",), ("power-law", 1.5)])),
        seed=draw(st.integers(0, 2**32)),
    )


# a star: one hub with 20 neighbours, every walk step a draw below 20 or 1
STAR = (
    Hierarchy([f"t{k:02d}" for k in range(21)], [("t00", f"t{k:02d}") for k in range(1, 21)]),
    BenchmarkConfig(CHUNK_OBJECTS + 5, 1.0, ("fixed", 4), ("uniform", 1, 9), seed=11),
)


# every weight but rank 1's underflows to 0.0: one run of equal bounds
# below the heavy tag and one above it
POWER_LAW_2000 = (
    binary_tree(5),
    BenchmarkConfig(CHUNK_OBJECTS + 5, 0.5, frequency_profile=("power-law", 2000.0), seed=3),
)


@settings(deadline=None)
@given(generator_hierarchies(), generator_configs())
@example(*STAR)
@example(*POWER_LAW_2000)
def test_generator_draws_what_the_public_randrange_loop_draws(h, config):
    assert list(iter_object_tags(h, config)) == _reference_objects(h, config)


@settings(deadline=None)
@given(generator_hierarchies(), generator_configs())
@example(*STAR)
def test_generate_interns_what_iter_object_tags_names(h, config):
    # generate() interns drawn positions and names each tag once at the end;
    # iter_object_tags() names every object, as the CLI writes it
    got = generate(h, config)
    want = corpus_from_object_lists(iter_object_tags(h, config))
    assert got.names == want.names
    assert got == want


@st.composite
def repeat_heavy_options(draw):
    """`hiertag generate` options under which most draws repeat a tag: many
    draws per object on a hierarchy of at most 7 tags, walks of up to 40
    steps, and every draw a walk step or none."""
    if draw(st.integers(0, 3)):
        count = f"fixed:{draw(st.integers(1, 24))}"
    else:
        count = f"poisson:{draw(st.floats(0.5, 12.0))!r}"
    w_lo = draw(st.integers(1, 20))
    return [
        "--objects", str(draw(st.integers(1, 80) | st.just(CHUNK_OBJECTS + 7))),
        "--tags-per-object", count,
        "--p-rw", draw(st.sampled_from(["0", "1", "0.9"])),
        "--walk", f"uniform:{w_lo}:{w_lo + draw(st.integers(0, 20))}",
        "--profile", draw(st.sampled_from(["linear-depth", "power-law:0.5", "power-law:1.3", "power-law:3"])),
        "--seed", str(draw(st.integers(0, 2**32))),
    ]  # fmt: skip


@settings(deadline=None, max_examples=40)
@given(generator_hierarchies(max_tags=7), repeat_heavy_options())
def test_generate_writes_the_lines_of_iter_object_tags(tmp_path_factory, h, options):
    # the command names a whole chunk of objects at once; iter_object_tags
    # yields one object at a time, and both follow the draws' naming rule
    tmp = tmp_path_factory.mktemp("generate")
    tree, out = str(tmp / "tree.tsv"), tmp / "corpus.tsv"
    save_hierarchy(h, tree)
    assert main(["generate", "--hierarchy", tree, *options, "--out", str(out)]) == 0
    opt = dict(zip(options[::2], options[1::2]))
    config = BenchmarkConfig(
        object_count=int(opt["--objects"]),
        p_random_walk=float(opt["--p-rw"]),
        tags_per_object=parse_count_distribution(opt["--tags-per-object"]),
        walk_length=parse_walk_length(opt["--walk"]),
        frequency_profile=parse_profile(opt["--profile"]),
        seed=int(opt["--seed"]),
    )
    h = load_hierarchy(tree)
    objects = list(iter_object_tags(h, config))
    assert objects == _reference_objects(h, config)
    assert out.read_bytes() == "".join("\t".join(tags) + "\n" for tags in objects).encode()


@st.composite
def cumulative_weights(draw):
    """Cumulative profile weights. Zero weights make runs of equal bounds, a
    list of one is a single tag, and one weight is at least 1, as in every
    profile (rank 1's power-law weight, the deepest level's linear-depth one)."""
    weights = draw(
        st.lists(st.just(0.0) | st.sampled_from([1.0, 2.0]) | st.floats(0.0, 1e6), max_size=40)
    )
    weights.insert(draw(st.integers(0, len(weights))), draw(st.floats(1.0, 1e6)))
    return list(accumulate(weights))


@settings(deadline=None)
@given(cumulative_weights(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
@example([1.0], [])
@example([0.0, 0.0, 1.0, 1.0, 1.0], [0.5])
def test_profile_table_draws_what_bisecting_every_bound_draws(cum, fractions):
    # the draws `random() * total`, every bound and both of its float
    # neighbours, and the ends of [0, total]
    head, total, scale, start = _profile_table(cum)
    xs = {0.0, math.nextafter(total, 0.0), total, *(f * total for f in fractions)}
    for y in cum:
        xs.update((math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)))
    for x in sorted(x for x in xs if 0.0 <= x <= total):
        b = int(x * scale)
        got = bisect_right(head, x, start[b], start[b + 1])
        assert got == min(bisect_right(cum, x), len(cum) - 1)


def test_linear_depth_profile_weights():
    # chain depths differ by one per level, so weights run d_max..1 top-down
    weights = _weights_by_name(_chain(), ("linear-depth",))
    assert weights == {"a": 3.0, "b": 2.0, "c": 1.0}


def test_power_law_profile_is_permuted_zipf():
    h = binary_tree(4)
    weights = _weights_by_name(h, ("power-law", 1.2), rng=random.Random(3))
    expected = sorted(((r + 1) ** -1.2 for r in range(h.n_tags)), reverse=True)
    assert sorted(weights.values(), reverse=True) == pytest.approx(expected)


def test_power_law_profile_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        _weights_by_name(_chain(), ("power-law", 2.0))


def test_generate_is_deterministic():
    h = binary_tree(5)
    config = BenchmarkConfig(object_count=500, p_random_walk=0.5, seed=7)
    a = generate(h, config)
    b = generate(h, config)
    assert a.names == b.names
    assert a == b


def test_shorter_run_is_a_prefix_of_a_longer_one():
    # each chunk draws from its own seeded stream, so object k does not depend
    # on how many objects follow it; both counts end part-way through a chunk
    h = binary_tree(5)
    n, m = 2 * CHUNK_OBJECTS + 100, 4 * CHUNK_OBJECTS + 7
    short = list(iter_object_tags(h, BenchmarkConfig(object_count=n, p_random_walk=0.5, seed=2)))
    long = list(iter_object_tags(h, BenchmarkConfig(object_count=m, p_random_walk=0.5, seed=2)))
    assert len(short) == n and len(long) == m
    assert long[:n] == short


def test_generate_respects_object_count_and_tag_universe():
    h = binary_tree(4)
    config = BenchmarkConfig(object_count=321, p_random_walk=0.3, seed=1)
    corpus = generate(h, config)
    assert corpus.n_objects == 321
    assert set(corpus.names) <= set(h.tags)
    assert np.diff(corpus.indptr).min() >= 1


def test_fixed_one_gives_single_tag_objects():
    h = _chain()
    config = BenchmarkConfig(
        object_count=200, p_random_walk=0.5, tags_per_object=("fixed", 1), seed=4
    )
    corpus = generate(h, config)
    assert (np.diff(corpus.indptr) == 1).all()


def test_poisson_objects_always_have_a_tag():
    h = _chain()
    config = BenchmarkConfig(
        object_count=2000, p_random_walk=0.0, tags_per_object=("poisson", 0.2), seed=9
    )
    corpus = generate(h, config)
    assert np.diff(corpus.indptr).min() >= 1


def test_first_tag_follows_linear_depth_profile():
    # fixed:1 objects are pure profile draws; chain weights 3:2:1
    h = _chain()
    config = BenchmarkConfig(
        object_count=30000, p_random_walk=0.5, tags_per_object=("fixed", 1), seed=11
    )
    corpus = generate(h, config)
    observed = np.bincount(corpus.tags[corpus.indptr[:-1]], minlength=3)
    share = {"a": 3 / 6, "b": 2 / 6, "c": 1 / 6}
    expected = [share[name] * corpus.n_objects for name in corpus.names]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


def test_single_step_walks_stay_on_hierarchy_links():
    # from tag a one undirected step only ever reaches b, so {a, c} never occurs
    h = _chain()
    config = BenchmarkConfig(
        object_count=3000,
        p_random_walk=1.0,
        tags_per_object=("fixed", 2),
        walk_length=("uniform", 1, 1),
        seed=6,
    )
    corpus = generate(h, config)
    obj = np.repeat(np.arange(corpus.n_objects), np.diff(corpus.indptr))
    with_a = obj[corpus.tags == corpus.names.index("a")]
    with_c = obj[corpus.tags == corpus.names.index("c")]
    assert not np.intersect1d(with_a, with_c).size


def test_different_seeds_give_different_corpora():
    h = binary_tree(5)
    a = generate(h, BenchmarkConfig(object_count=300, p_random_walk=0.5, seed=1))
    b = generate(h, BenchmarkConfig(object_count=300, p_random_walk=0.5, seed=2))
    assert not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.tags, b.tags))


def test_empty_hierarchy_is_rejected_before_any_draw():
    empty = Hierarchy([], [])
    config = BenchmarkConfig(
        object_count=10, p_random_walk=0.5, frequency_profile=("power-law", 2.0)
    )
    with pytest.raises(ValueError, match="hierarchy has no tags"):
        iter_object_tags(empty, config)
    with pytest.raises(ValueError, match="hierarchy has no tags"):
        generate(empty, config)
