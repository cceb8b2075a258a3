from __future__ import annotations

import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from hiertag import corpus as corpus_module
from hiertag.corpus import (
    CorpusFormatError,
    build_cooccurrence,
    corpus_from_object_lists,
    load_corpus,
)


def brute_force_pair_counts(objects):
    """Q_ij for i < j by enumerating every object's tag pairs."""
    counts = Counter()
    for obj in objects:
        counts.update(combinations(sorted(obj), 2))
    return counts


def _count(network, i, j):
    """Q_ij read off row i's run of the CSR arrays; 0 for a pair not stored."""
    lo, hi = network.indptr[i], network.indptr[i + 1]
    run = network.indices[lo:hi].tolist()
    return int(network.weights[lo + run.index(j)]) if j in run else 0


def _weight(network, a, b):
    names = network.names
    return _count(network, names.index(a), names.index(b))


def test_load_corpus_counts(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("a\tb\na\tc\n")
    corpus = load_corpus(path)
    assert corpus.n_objects == 2
    assert corpus.freq[corpus.names.index("a")] == 2
    assert corpus.freq[corpus.names.index("b")] == 1
    assert corpus.freq[corpus.names.index("c")] == 1


def test_load_corpus_collapses_duplicate_tags(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("a\ta\tb\n")
    corpus = load_corpus(path)
    assert corpus.indptr.tolist() == [0, 2]
    assert corpus.tags.tolist() == sorted((corpus.names.index("a"), corpus.names.index("b")))
    assert corpus.freq[corpus.names.index("a")] == 1


def test_load_corpus_empty_file_errors(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="zero objects"):
        load_corpus(path)


def test_load_corpus_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("# header\n\na\tb\n\n# tail\n")
    corpus = load_corpus(path)
    assert corpus.n_objects == 1
    assert corpus.n_tags == 2


def test_load_corpus_with_ids_skips_first_field(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("obj1\ta\tb\nobj2\ta\n")
    corpus = load_corpus(path, with_ids=True)
    assert corpus.n_objects == 2
    assert "obj1" not in corpus.names
    assert corpus.freq[corpus.names.index("a")] == 2


def test_load_corpus_reports_offending_line_number(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_text("a\tb\na\t\tb\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert err.value.line_number == 2


def test_build_cooccurrence_pair_counts():
    corpus = corpus_from_object_lists([["a", "b"], ["a", "b"], ["a", "c"]])
    network = build_cooccurrence(corpus)
    assert _weight(network, "a", "b") == 2
    assert _weight(network, "a", "c") == 1
    assert _weight(network, "b", "c") == 0
    assert network.n_pairs == 2


def test_single_tag_object_makes_empty_network():
    network = build_cooccurrence(corpus_from_object_lists([["a"]]))
    assert network.n_tags == 1
    assert network.n_pairs == 0


def test_repeated_pair_counts_every_object():
    corpus = corpus_from_object_lists([["a", "b"]] * 1000)
    network = build_cooccurrence(corpus)
    assert _weight(network, "a", "b") == 1000


def test_weight_is_symmetric():
    network = build_cooccurrence(corpus_from_object_lists([["a", "b"], ["b", "c"]]))
    for i in range(network.n_tags):
        for j in range(network.n_tags):
            assert _count(network, i, j) == _count(network, j, i)


def _random_objects(rng, n_tags, n_objects):
    tags = [f"t{k}" for k in range(n_tags)]
    return [
        rng.sample(tags, rng.randint(1, min(6, n_tags))) for _ in range(n_objects)
    ]


def test_pair_total_identity_on_random_corpus():
    rng = random.Random(7)
    corpus = corpus_from_object_lists(_random_objects(rng, 25, 400))
    network = build_cooccurrence(corpus)
    from_objects = sum(k * (k - 1) // 2 for k in np.diff(corpus.indptr).tolist())
    from_pairs = int(network.weights[network.indices > network.rows].sum())
    assert from_objects == from_pairs


def test_object_order_does_not_change_the_network():
    rng = random.Random(11)
    objects = _random_objects(rng, 15, 200)
    shuffled = list(objects)
    rng.shuffle(shuffled)
    a = build_cooccurrence(corpus_from_object_lists(objects))
    b = build_cooccurrence(corpus_from_object_lists(shuffled))
    # same tag universe in both orders, so compare every stored count by name
    pairs_a, pairs_b = (
        {
            (n.names[i], n.names[j]): w
            for i, j, w in zip(n.rows.tolist(), n.indices.tolist(), n.weights.tolist())
        }
        for n in (a, b)
    )
    assert pairs_a == pairs_b


def test_shard_counts_merge_to_single_pass():
    rng = random.Random(3)
    corpus = corpus_from_object_lists(_random_objects(rng, 20, 300))
    network = build_cooccurrence(corpus)
    rows, cols, ws = network.rows.tolist(), network.indices.tolist(), network.weights.tolist()
    whole = {(i, j): w for i, j, w in zip(rows, cols, ws) if i < j}
    ptr, ids = corpus.indptr.tolist(), corpus.tags.tolist()
    merged = brute_force_pair_counts(ids[ptr[o] : ptr[o + 1]] for o in range(100))
    merged.update(
        brute_force_pair_counts(ids[ptr[o] : ptr[o + 1]] for o in range(100, corpus.n_objects))
    )
    assert whole == merged


def test_long_objects_are_counted_in_bounded_pair_blocks():
    rng = random.Random(17)
    tags = [f"t{k}" for k in range(120)]
    objects = [rng.sample(tags, rng.randint(40, 120)) for _ in range(60)]
    corpus = corpus_from_object_lists(objects)
    whole = build_cooccurrence(corpus)
    block, longest = 5000, 120 * 119 // 2
    with mock.patch.object(corpus_module, "PAIR_BLOCK", block), mock.patch.object(
        corpus_module, "_run_heads", wraps=corpus_module._run_heads
    ) as heads:
        blocked = build_cooccurrence(corpus)
    # every block's keys are sorted and counted at once, and each block holds
    # at most PAIR_BLOCK pairs plus one object's
    held = [len(call.args[0]) for call in heads.call_args_list]
    assert len(held) > 10 and max(held) <= block + longest
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(whole, name), getattr(blocked, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    rows, cols, ws = blocked.rows.tolist(), blocked.indices.tolist(), blocked.weights.tolist()
    ptr, ids = corpus.indptr.tolist(), corpus.tags.tolist()
    expected = brute_force_pair_counts(ids[ptr[o] : ptr[o + 1]] for o in range(corpus.n_objects))
    assert {(i, j): w for i, j, w in zip(rows, cols, ws) if i < j} == expected


def test_threads_do_not_change_the_network():
    rng = random.Random(5)
    corpus = corpus_from_object_lists(_random_objects(rng, 30, 500))
    serial = build_cooccurrence(corpus)
    # builds running at once on several threads share no state
    with ThreadPoolExecutor(max_workers=3) as pool:
        built = list(pool.map(build_cooccurrence, [corpus] * 6))
    for network in built:
        assert network.indptr.tolist() == serial.indptr.tolist()
        assert network.indices.tolist() == serial.indices.tolist()
        assert network.weights.tolist() == serial.weights.tolist()


def test_cooccurrence_bounded_by_marginals():
    rng = random.Random(13)
    corpus = corpus_from_object_lists(_random_objects(rng, 12, 250))
    network = build_cooccurrence(corpus)
    freq = np.asarray(network.freq)
    assert (network.weights <= np.minimum(freq[network.rows], freq[network.indices])).all()


def test_empty_object_rejected():
    with pytest.raises(CorpusFormatError, match="no tags"):
        corpus_from_object_lists([["a"], []])


def test_zero_objects_rejected():
    with pytest.raises(CorpusFormatError, match="zero objects"):
        corpus_from_object_lists([])
