from __future__ import annotations

import errno
import hashlib
import os
import random

import pytest

from hiertag.cli import _grid_from_step, main
from hiertag.hierarchy import Hierarchy, binary_tree, hierarchy_to_text, load_hierarchy


def _write_chain(path):
    path.write_text("a\tb\nb\tc\n", encoding="utf-8")
    return str(path)


def _write_nested_corpus(path):
    lines = ["a"] * 100 + ["a\tb"] * 50 + ["a\tb\tc"] * 25
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_tree_subcommand_writes_edge_list_and_manifest(tmp_path):
    out = tmp_path / "tree.tsv"
    assert main(["tree", "--levels", "3", "--out", str(out)]) == 0
    assert load_hierarchy(str(out)) == binary_tree(3)
    manifest = dict(
        line.split("\t", 1)
        for line in (tmp_path / "tree.tsv.manifest").read_text().splitlines()
    )
    assert manifest["subcommand"] == "tree"
    assert manifest["levels"] == "3"
    assert "version" in manifest and "duration_s" in manifest
    assert manifest["argv"].split("\t")[0] == "tree"


def test_tree_to_stdout_manifest_to_stderr(capsys):
    assert main(["tree", "--levels", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\t2\n1\t3\n"
    assert "subcommand\ttree" in captured.err


def test_generate_writes_requested_object_count(tmp_path):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "4", "--out", str(tree)])
    corpus = tmp_path / "corpus.tsv"
    code = main(
        [
            "generate",
            "--hierarchy",
            str(tree),
            "--objects",
            "50",
            "--seed",
            "3",
            "--out",
            str(corpus),
        ]
    )
    assert code == 0
    lines = corpus.read_text().splitlines()
    assert len(lines) == 50
    tags = set(binary_tree(4).tags)
    assert all(set(line.split("\t")) <= tags for line in lines)


def test_generate_is_byte_reproducible_across_threads(tmp_path):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "4", "--out", str(tree)])
    args = ["generate", "--hierarchy", str(tree), "--objects", "300", "--seed", "9"]
    one = tmp_path / "one.tsv"
    two = tmp_path / "two.tsv"
    assert main(args + ["--out", str(one)]) == 0
    # --threads is hidden and ignored; it is accepted so old manifests replay
    assert main(args + ["--out", str(two), "--threads", "3"]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert "threads" not in _manifest(tmp_path / "two.tsv.manifest")


def test_extract_every_algorithm(tmp_path):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    for algorithm, expected in (
        ("a", {("a", "b"), ("b", "c")}),
        ("b", {("a", "b"), ("b", "c")}),
        ("heymann", {("*root*", "a"), ("a", "b"), ("b", "c")}),
        ("schmitz", {("a", "b"), ("b", "c")}),
    ):
        out = tmp_path / f"{algorithm}.tsv"
        code = main(["extract", corpus, "--algorithm", algorithm, "--out", str(out)])
        assert code == 0
        assert set(load_hierarchy(str(out)).edges) == expected


def test_extract_with_ids_skips_first_field(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    lines = [f"obj{k}\ta" for k in range(100)]
    lines += [f"obj{k}\ta\tb" for k in range(100, 130)]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "h.tsv"
    code = main(
        ["extract", str(corpus), "--algorithm", "a", "--with-ids", "--out", str(out)]
    )
    assert code == 0
    assert set(load_hierarchy(str(out)).edges) == {("a", "b")}


def test_evaluate_identical_hierarchies(tmp_path):
    exact = _write_chain(tmp_path / "exact.tsv")
    out = tmp_path / "report.tsv"
    assert main(["evaluate", exact, exact, "--out", str(out)]) == 0
    report = dict(line.split("\t") for line in out.read_text().splitlines())
    assert report["r_E"] == "1"
    assert report["r_A"] == "1"
    assert report["r_M"] == "0"
    assert report["nmi"] == "1"
    assert report["N"] == "3"
    assert report["M_r"] == "2"


def test_evaluate_strips_synthetic_root_from_reconstruction(tmp_path):
    exact = _write_chain(tmp_path / "exact.tsv")
    recon = tmp_path / "recon.tsv"
    recon.write_text("*root*\ta\na\tb\nb\tc\n", encoding="utf-8")
    out = tmp_path / "report.tsv"
    assert main(["evaluate", exact, str(recon), "--out", str(out)]) == 0
    report = dict(line.split("\t") for line in out.read_text().splitlines())
    assert report["r_E"] == "1"
    assert report["nmi"] == "1"


def test_evaluate_with_lmi(tmp_path):
    exact = _write_chain(tmp_path / "exact.tsv")
    out = tmp_path / "report.tsv"
    code = main(
        [
            "evaluate",
            exact,
            exact,
            "--lmi",
            "--curve-runs",
            "2",
            "--curve-grid-step",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = dict(line.split("\t") for line in out.read_text().splitlines())
    assert report["lmi"] == "1"


def test_curve_grid_step_controls_point_count(tmp_path):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "4", "--out", str(tree)])
    out = tmp_path / "curve.tsv"
    code = main(
        ["curve", str(tree), "--grid-step", "0.1", "--runs", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    first_f, first_v = lines[0].split("\t")
    assert first_f == "0" and first_v == "1"


def test_curve_rejects_grid_step_not_dividing_one(tmp_path, capsys):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "3", "--out", str(tree)])
    code = main(["curve", str(tree), "--grid-step", "0.3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_without_lmi_ignores_the_curve_grid_step(tmp_path):
    exact = _write_chain(tmp_path / "exact.tsv")
    plain, stepped = tmp_path / "plain.tsv", tmp_path / "stepped.tsv"
    assert main(["evaluate", exact, exact, "--out", str(plain)]) == 0
    argv = ["evaluate", exact, exact, "--curve-grid-step", "0.3", "--out", str(stepped)]
    assert main(argv) == 0
    assert stepped.read_text() == plain.read_text()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["curve", "missing.tsv", "--grid-step", "0.3"], "--grid-step"),
        (
            ["evaluate", "missing.tsv", "missing.tsv", "--lmi", "--curve-grid-step", "0.3"],
            "--curve-grid-step",
        ),
    ],
)
def test_grid_step_is_checked_before_any_file_is_read(tmp_path, monkeypatch, capsys, argv, option):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {option} must divide 1 evenly\n"
    assert os.listdir(tmp_path) == []


def test_grid_step_bound_is_checked_before_the_grid_is_built():
    assert len(_grid_from_step("--grid-step", 0.001)) == 1001
    # 1e-9 divides 1 evenly by arithmetic, so only the bound stops a grid of
    # 10**9 + 1 fractions
    for step in (0.0005, 1e-9):
        with pytest.raises(ValueError, match=r"^--grid-step must be at least 0\.001$"):
            _grid_from_step("--grid-step", step)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tree", "--levels", "40"], "levels is too large: 40 > 20"),
        (["curve", "exact.tsv", "--grid-step", "1e-9"], "--grid-step must be at least 0.001"),
        (
            ["evaluate", "exact.tsv", "exact.tsv", "--lmi", "--curve-grid-step", "1e-9"],
            "--curve-grid-step must be at least 0.001",
        ),
        (
            ["generate", "--hierarchy", "exact.tsv", "--objects", "5"]
            + ["--tags-per-object", "fixed:1000000000"],
            "--tags-per-object 'fixed:1000000000': "
            "fixed tag count is too large: 1000000000 > 1000",
        ),
        (
            ["generate", "--hierarchy", "exact.tsv", "--objects", "5"]
            + ["--walk", "uniform:1:1000000000"],
            "--walk 'uniform:1:1000000000': walk length is too large: 1000000000 > 1000",
        ),
    ],
)
def test_unbounded_sizes_are_rejected_before_allocation(
    tmp_path, monkeypatch, capsys, argv, message
):
    # should the generate check go, the draw fails at once instead of
    # appending 10**9 positions per object
    def no_draws(*args):
        raise AssertionError("the generator ran")

    monkeypatch.setattr("hiertag.benchmark._make_chunk", no_draws)
    monkeypatch.chdir(tmp_path)
    assert main(["tree", "--levels", "3", "--out", "exact.tsv"]) == 0
    assert main(argv + ["--out", "o.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["exact.tsv", "exact.tsv.manifest"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["curve", "missing.tsv", "--runs", "0"], "--runs"),
        (["evaluate", "missing.tsv", "missing.tsv", "--lmi", "--curve-runs", "0"], "--curve-runs"),
    ],
)
def test_run_counts_are_checked_before_any_file_is_read(
    tmp_path, monkeypatch, capsys, argv, option
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {option} must be >= 1\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {"t.tsv": "a\tb\n", "u.tsv": "a\tc\n"},
            ["evaluate", "t.tsv", "u.tsv"],
            "t.tsv, u.tsv: mismatched tag sets: only in exact ['b'], only in reconstructed ['c']",
        ),
        (
            {"one.tsv": "a\n"},
            ["evaluate", "one.tsv", "one.tsv"],
            "one.tsv, one.tsv: link ratios need at least 2 tags",
        ),
        (
            {"two.tsv": "a\nb\n"},
            ["evaluate", "two.tsv", "two.tsv"],
            "two.tsv, two.tsv: undefined NMI: both hierarchies are edgeless",
        ),
        ({"one.tsv": "a\n"}, ["curve", "one.tsv"], "one.tsv: NMI needs at least 2 tags"),
    ],
    ids=["mismatched-tags", "one-tag-ratios", "edgeless", "one-tag-curve"],
)
def test_metric_errors_name_the_files(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv + ["--out", "out.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == sorted(files)


def test_randomize_fraction_zero_is_identity(tmp_path):
    source = _write_chain(tmp_path / "h.tsv")
    out = tmp_path / "rewired.tsv"
    assert main(["randomize", source, "--fraction", "0", "--out", str(out)]) == 0
    assert out.read_text() == hierarchy_to_text(load_hierarchy(source))


def test_randomize_is_seed_deterministic(tmp_path):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "5", "--out", str(tree)])
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    main(["randomize", str(tree), "--fraction", "0.5", "--seed", "4", "--out", str(a)])
    main(["randomize", str(tree), "--fraction", "0.5", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_manifest_replay_reproduces_output(tmp_path):
    out = tmp_path / "tree.tsv"
    main(["tree", "--levels", "3", "--out", str(out)])
    first = out.read_bytes()
    out.unlink()
    code = main(["--manifest", str(tmp_path / "tree.tsv.manifest")])
    assert code == 0
    assert out.read_bytes() == first


def test_manifest_out_flag_overrides_default_path(tmp_path):
    out = tmp_path / "tree.tsv"
    manifest = tmp_path / "run.manifest"
    main(["tree", "--levels", "2", "--out", str(out), "--manifest-out", str(manifest)])
    assert manifest.exists()
    assert not (tmp_path / "tree.tsv.manifest").exists()


def test_stdout_output_with_a_manifest_file(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    assert main(["tree", "--levels", "2", "--out", "-", "--manifest-out", str(manifest)]) == 0
    assert capsys.readouterr() == ("1\t2\n1\t3\n", "")
    assert _manifest(manifest)["out"] == "-"


@pytest.mark.parametrize("missing", ["--out", "--manifest-out"])
def test_failed_write_names_the_path_and_keeps_both_older_files(tmp_path, capsys, missing):
    paths = {"--out": tmp_path / "e.tsv", "--manifest-out": tmp_path / "e.manifest"}
    for path in paths.values():
        path.write_text(f"older {path.name}\n", encoding="utf-8")
    target = {**paths, missing: tmp_path / "missing" / "f"}
    argv = ["tree", "--levels", "3", "--out", str(target["--out"])]
    assert main(argv + ["--manifest-out", str(target["--manifest-out"])]) == 1
    no_such = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
    assert capsys.readouterr().err == f"error: {no_such}: {str(target[missing])!r}\n"
    for path in paths.values():
        assert path.read_text(encoding="utf-8") == f"older {path.name}\n"
    assert sorted(os.listdir(tmp_path)) == ["e.manifest", "e.tsv"]


@pytest.mark.parametrize("directory", ["--out", "--manifest-out"])
def test_a_directory_target_fails_before_either_file_is_replaced(tmp_path, capsys, directory):
    # os.replace would put the output in place and only then fail on a
    # manifest path that is a directory
    paths = {"--out": tmp_path / "e.tsv", "--manifest-out": tmp_path / "e.manifest"}
    for path in paths.values():
        path.write_text(f"older {path.name}\n", encoding="utf-8")
    target = {**paths, directory: tmp_path / "d"}
    target[directory].mkdir()
    argv = ["tree", "--levels", "3", "--out", str(target["--out"])]
    assert main(argv + ["--manifest-out", str(target["--manifest-out"])]) == 1
    is_a_directory = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert capsys.readouterr().err == f"error: {is_a_directory}: {str(target[directory])!r}\n"
    for path in paths.values():
        assert path.read_text(encoding="utf-8") == f"older {path.name}\n"
    assert sorted(os.listdir(tmp_path)) == ["d", "e.manifest", "e.tsv"]
    assert os.listdir(target[directory]) == []


@pytest.mark.parametrize("manifest_out", ["e.tsv", "./e.tsv"])
def test_manifest_out_naming_the_output_is_rejected(tmp_path, monkeypatch, capsys, manifest_out):
    monkeypatch.chdir(tmp_path)
    code = main(["tree", "--levels", "3", "--out", "e.tsv", "--manifest-out", manifest_out])
    assert code == 1
    assert capsys.readouterr().err == f"error: --manifest-out {manifest_out!r} names the --out file\n"
    assert os.listdir(tmp_path) == []


def test_missing_input_file_reports_error(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path / "no.tsv"), str(tmp_path / "no.tsv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_algorithm_exits_with_usage_error(tmp_path):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    with pytest.raises(SystemExit) as excinfo:
        main(["extract", corpus, "--algorithm", "x"])
    assert excinfo.value.code == 2


def test_threads_env_variable_is_ignored(tmp_path, monkeypatch):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    plain = tmp_path / "plain.tsv"
    assert main(["extract", corpus, "--algorithm", "a", "--out", str(plain)]) == 0
    monkeypatch.setenv("HIERTAG_THREADS", "2")
    out = tmp_path / "h.tsv"
    assert main(["extract", corpus, "--algorithm", "a", "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert "threads" not in _manifest(tmp_path / "h.tsv.manifest")


def test_bad_threads_env_variable_is_ignored(tmp_path, monkeypatch, capsys):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    plain = tmp_path / "plain.tsv"
    assert main(["extract", corpus, "--algorithm", "a", "--out", str(plain)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("HIERTAG_THREADS", "many")
    out = tmp_path / "h.tsv"
    assert main(["extract", corpus, "--algorithm", "a", "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    assert out.read_bytes() == plain.read_bytes()
    assert "threads" not in _manifest(tmp_path / "h.tsv.manifest")


def test_manifest_with_threads_replays_byte_identically(tmp_path):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "4", "--out", str(tree)])
    args = ["curve", str(tree), "--runs", "2", "--seed", "3"]
    first = tmp_path / "first.tsv"
    assert main(args + ["--out", str(first)]) == 0
    replayed = tmp_path / "replayed.tsv"
    # a manifest as written by a release that still had worker threads
    stored = tmp_path / "old.manifest"
    argv = "\t".join(args + ["--threads", "4", "--out", str(replayed)])
    stored.write_text(f"subcommand\tcurve\nthreads\t4\nargv\t{argv}\n", encoding="utf-8")
    assert main(["--manifest", str(stored)]) == 0
    assert replayed.read_bytes() == first.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("hiertag ")


def _manifest(path):
    return dict(line.split("\t", 1) for line in path.read_text().splitlines())


def test_nested_manifest_replay_is_rejected(tmp_path, capsys):
    manifest = tmp_path / "loop.manifest"
    manifest.write_text(f"subcommand\ttree\nargv\t--manifest\t{manifest}\n", encoding="utf-8")
    code = main(["--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested replay" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "rows, line, message",
    [
        (
            "subcommand\ttree\nargv\ttree\t--levels\tx\n",
            2,
            "hiertag tree: argument --levels: invalid int value: 'x'",
        ),
        ("# no arguments\nargv\n", 2, "hiertag: the following arguments are required: cmd"),
        ("argv\ttree\t--levels\t2\t--bogus\n", 1, "hiertag: unrecognized arguments: --bogus"),
    ],
)
def test_malformed_manifest_argv_names_the_manifest_line(
    tmp_path, monkeypatch, capsys, rows, line, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.manifest").write_text(rows, encoding="utf-8")
    assert main(["--manifest", "bad.manifest"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad.manifest: line {line}: argv: {message}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["bad.manifest"]


def test_undecodable_manifest_error_names_the_file(tmp_path, capsys):
    manifest = tmp_path / "bad.manifest"
    manifest.write_bytes(b"subcommand\ttree\xff\nargv\ttree\t--levels\t2\n")
    code = main(["--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: 'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1


def test_extract_manifest_records_corpus_and_network_sizes(tmp_path):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    for algorithm in ("a", "b", "heymann", "schmitz"):
        out = tmp_path / f"{algorithm}.tsv"
        assert main(["extract", corpus, "--algorithm", algorithm, "--out", str(out)]) == 0
        manifest = _manifest(tmp_path / f"{algorithm}.tsv.manifest")
        assert (manifest["objects"], manifest["tags"], manifest["pairs"]) == ("175", "3", "3")
        assert ("pairs_kept" in manifest) == (algorithm == "b")
    # a-b, a-c and b-c all cover half of the rarer tag's objects, so all survive
    assert _manifest(tmp_path / "b.tsv.manifest")["pairs_kept"] == "3"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"a\tb\nc\t\td\n", "line 2: empty tag field"),
        (
            b"a\tb\n# note\nc\td\nab\xffc\td\n",
            "line 4: 'utf-8' codec can't decode byte 0xff in position 2",
        ),
    ],
)
def test_extract_errors_name_the_file_and_line(tmp_path, capsys, content, message):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(content)
    out = tmp_path / "h.tsv"
    code = main(["extract", str(corpus), "--algorithm", "a", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}: {message}")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "algorithm, option, message",
    [
        ("heymann", ["--similarity-threshold", "5"], "similarity_threshold must be in [0, 1]"),
        ("schmitz", ["--t-subsume", "7"], "t_subsume must be in [0, 1], got 7.0"),
        ("schmitz", ["--min-cooccurrence", "-1"], "min_cooccurrence must be >= 0, got -1"),
        ("a", ["--omega", "0"], "omega must be in (0, 1]"),
        ("b", ["--z-threshold", "nan"], "z_threshold must be a number, got nan"),
    ],
)
def test_extract_rejects_out_of_range_baseline_params(
    tmp_path, capsys, algorithm, option, message
):
    corpus = _write_nested_corpus(tmp_path / "corpus.tsv")
    out = tmp_path / "h.tsv"
    # options are checked before the corpus is read, so a missing corpus gives the same error
    for path in (corpus, str(tmp_path / "missing.tsv")):
        code = main(["extract", path, "--algorithm", algorithm, *option, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["corpus.tsv"]


def test_extract_with_ids_reports_object_without_tags(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("o1\ta\tb\no2\n", encoding="utf-8")
    code = main(["extract", str(corpus), "--algorithm", "a", "--with-ids"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: line 2: object with no tags")


def test_extractor_errors_name_the_input_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("*root*\ta\na\tb\n", encoding="utf-8")
    out = tmp_path / "h.tsv"
    code = main(["extract", str(corpus), "--algorithm", "heymann", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}: corpus uses the reserved tag name '*root*'\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["corpus.tsv"]


@pytest.mark.parametrize(
    "content, message",
    [
        (b"a\tb\nb\tc\td\n", "line 2: expected 1 or 2 fields, got 3"),
        (
            b"a\tb\r\nb\tc\r\n\xe9\tc\r\n",
            "line 3: 'utf-8' codec can't decode byte 0xe9 in position 0",
        ),
        (b"a\tb\nb\tb\n", "line 2: self-loop on tag 'b'"),
        (b"a\tb\nb\ta\n", "hierarchy contains a directed cycle through ['a', 'b']"),
    ],
)
def test_evaluate_errors_name_the_file_and_line(tmp_path, capsys, content, message):
    exact = _write_chain(tmp_path / "exact.tsv")
    recon = tmp_path / "recon.tsv"
    recon.write_bytes(content)
    code = main(["evaluate", exact, str(recon), "--out", str(tmp_path / "report.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {recon}: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "{f}"],
        ["randomize", "{f}", "--fraction", "0.5"],
        ["evaluate", "{f}", "{f}", "--lmi"],
    ],
    ids=["curve", "randomize", "evaluate-lmi"],
)
def test_tree_only_commands_name_the_file(tmp_path, capsys, argv):
    forest = tmp_path / "forest.tsv"
    forest.write_text("a\tb\nc\td\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    code = main([arg.format(f=forest) for arg in argv] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {forest}: ")
    assert len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["forest.tsv"]


def test_evaluate_without_lmi_accepts_a_forest(tmp_path):
    forest = tmp_path / "forest.tsv"
    forest.write_text("a\tb\nc\td\n", encoding="utf-8")
    report = tmp_path / "report.tsv"
    assert main(["evaluate", str(forest), str(forest), "--out", str(report)]) == 0
    assert "nmi\t1" in report.read_text()


# tag d has two parents, b and c
SIX_TAG_DAG = "a\tb\na\tc\nb\td\nc\td\nd\te\nc\tf\n"


@pytest.fixture(scope="module")
def dag_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("dag")
    dag, corpus = root / "dag.tsv", root / "corpus.tsv"
    dag.write_text(SIX_TAG_DAG, encoding="utf-8")
    argv = ["generate", "--hierarchy", str(dag), "--objects", "3000", "--seed", "2"]
    assert main(argv + ["--out", str(corpus)]) == 0
    return str(dag), str(corpus)


# (r_E, r_A, r_I, r_U, r_M, nmi, M_r) of each extractor against the DAG
@pytest.mark.parametrize(
    "algorithm, rows",
    [
        ("a", ("0.8", "0.8", "0", "0.2", "0", "0.6096077086", "5")),
        ("b", ("0.8", "0.8", "0", "0", "0.2", "0.4360058538", "4")),
        ("heymann", ("1", "1", "0", "0", "0", "0.7885225053", "5")),
        ("schmitz", ("0", "0", "0", "0", "1", "0", "0")),
        (None, ("1", "1", "0", "0", "0", "1", "6")),  # the DAG against itself
    ],
)
def test_evaluate_scores_reconstructions_against_a_dag(dag_corpus, tmp_path, algorithm, rows):
    dag, corpus = dag_corpus
    recon = dag
    if algorithm:
        recon = str(tmp_path / "recon.tsv")
        assert main(["extract", corpus, "--algorithm", algorithm, "--out", recon]) == 0
    report = tmp_path / "report.tsv"
    assert main(["evaluate", dag, recon, "--out", str(report)]) == 0
    names = ("r_E", "r_A", "r_I", "r_U", "r_M", "nmi", "N", "M_r")
    values = rows[:6] + ("6",) + rows[6:]
    assert report.read_text() == "".join(f"{k}\t{v}\n" for k, v in zip(names, values))


def _tree_dag(levels, extra, seed):
    """`binary_tree(levels)` plus `extra` distinct seeded links, each from a
    tag at depth d - 1 to a tag at depth d that is not its child. Links only
    go one level down, so the DAG is acyclic, and each link's child has two
    or more parents."""
    rng = random.Random(seed)
    tree = binary_tree(levels)
    edges = set(tree.edges)
    while len(edges) < tree.n_edges + extra:
        depth = rng.randint(1, levels - 1)
        parent = rng.randrange(2 ** (depth - 1), 2**depth)
        edges.add((str(parent), str(rng.randrange(2**depth, 2 ** (depth + 1)))))
    return Hierarchy(tree.tags, edges)


# sha256 of the `evaluate` report of each extractor against the 127-tag,
# 151-link DAG `_tree_dag(7, 25, seed=5)`, from 20k generated objects (seed
# 1): a scores r_E 0.897 and NMI 0.643, b scores r_E 0.865 and NMI 0.537
TREE_DAG_REPORTS = {
    "a": "d82790ee8ec125ee4cc7e6656111da4240118bbd6954a05bd066429c1edd1f4d",
    "b": "74cfb24e84d406fa986bb83319be7d0fafbeabef95684063732b8463ca5fab24",
}


@pytest.mark.parametrize("algorithm", sorted(TREE_DAG_REPORTS))
def test_extractors_against_a_larger_dag_match_pinned_reports(tmp_path, algorithm):
    dag = tmp_path / "dag.tsv"
    dag.write_text(hierarchy_to_text(_tree_dag(7, 25, seed=5)), encoding="utf-8")
    corpus, recon, report = (tmp_path / name for name in ("corpus.tsv", "recon.tsv", "report.tsv"))
    argv = ["generate", "--hierarchy", str(dag), "--objects", "20000", "--seed", "1"]
    assert main(argv + ["--out", str(corpus)]) == 0
    assert main(["extract", str(corpus), "--algorithm", algorithm, "--out", str(recon)]) == 0
    assert main(["evaluate", str(dag), str(recon), "--out", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_DAG_REPORTS[algorithm], text


@pytest.mark.parametrize("profile", ["linear-depth", "power-law:2"])
def test_generate_from_an_empty_hierarchy_names_the_file(tmp_path, capsys, profile):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no tags\n", encoding="utf-8")
    out = tmp_path / "g.txt"
    argv = ["generate", "--hierarchy", str(empty), "--objects", "10", "--profile", profile]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: hierarchy has no tags\n"
    assert sorted(os.listdir(tmp_path)) == ["empty.tsv"]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--tags-per-object", "poisson:x", "could not convert string to float: 'x'"),
        ("--tags-per-object", "fixed:x", "invalid literal for int() with base 10: 'x'"),
        ("--tags-per-object", "fixed:0", "fixed tag count must be >= 1"),
        ("--tags-per-object", "zipf:2", "unknown tags-per-object distribution 'zipf:2'"),
        ("--walk", "uniform:1:x", "invalid literal for int() with base 10: 'x'"),
        ("--walk", "uniform:3:1", "walk length bounds must satisfy 1 <= lo <= hi"),
        ("--profile", "power-law:x", "could not convert string to float: 'x'"),
        ("--profile", "flat", "unknown frequency profile 'flat'"),
        ("--tags-per-object", "poisson:nan", "poisson mean must be > 0"),
        ("--profile", "power-law:nan", "power-law exponent must be > 0"),
        ("--tags-per-object", "poisson:inf", "poisson mean is too large: inf > 708.39"),
    ],
)
def test_generate_descriptor_errors_name_the_option(tmp_path, capsys, option, value, message):
    tree = _write_chain(tmp_path / "tree.tsv")
    out = tmp_path / "g.txt"
    argv = ["generate", "--hierarchy", tree, "--objects", "5", option, value, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {option} {value!r}: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["tree.tsv"]


def test_generate_rejects_a_poisson_mean_too_small_to_draw_a_tag(tmp_path, monkeypatch, capsys):
    # such a mean once hung generation; should the check go, the draw fails
    # at once instead of hanging
    def no_draws(*args):
        raise AssertionError("the generator ran")

    monkeypatch.setattr("hiertag.benchmark._make_chunk", no_draws)
    tree = _write_chain(tmp_path / "tree.tsv")
    out = tmp_path / "g.txt"
    argv = ["generate", "--hierarchy", tree, "--objects", "5", "--tags-per-object", "poisson:1e-300"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --tags-per-object 'poisson:1e-300': "
        "poisson mean is too small: 1e-300 < 0.001\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["tree.tsv"]


def test_failed_generate_leaves_the_older_output_untouched(tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree.tsv"
    main(["tree", "--levels", "3", "--out", str(tree)])
    out = tmp_path / "g.txt"
    out.write_text("older\n", encoding="utf-8")

    def fails_part_way(h, config):
        yield ["1", "2"]
        raise ValueError("object stream failed")

    monkeypatch.setattr("hiertag.cli.iter_object_tags", fails_part_way)
    code = main(["generate", "--hierarchy", str(tree), "--objects", "10", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: object stream failed\n"
    assert out.read_text(encoding="utf-8") == "older\n"
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "tree.tsv", "tree.tsv.manifest"]
