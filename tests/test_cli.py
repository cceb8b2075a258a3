from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import io
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiertag
from hiertag.baselines import CENTRALITY_KINDS
from hiertag.cli import _grid_from_step, build_parser, main
from hiertag.hierarchy import (
    REWIRING_ORDERS,
    Hierarchy,
    binary_tree,
    hierarchy_to_text,
    load_hierarchy,
    rewire,
)
from hiertag.metrics import decay_curve, evaluate_hierarchies, lmi


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


@pytest.mark.parametrize("order", REWIRING_ORDERS)
def test_evaluate_lmi_equals_the_library_composition(tmp_path, order):
    # a partly rewired tree scores inside the curve, so its LMI moves with
    # every curve setting
    exact = binary_tree(5)
    recon = rewire(exact, 0.3, "random", random.Random(2))
    (tmp_path / "exact.tsv").write_text(hierarchy_to_text(exact), encoding="utf-8")
    (tmp_path / "recon.tsv").write_text(hierarchy_to_text(recon), encoding="utf-8")
    out = tmp_path / "report.tsv"
    argv = ["evaluate", str(tmp_path / "exact.tsv"), str(tmp_path / "recon.tsv"), "--lmi"]
    argv += ["--curve-order", order, "--curve-runs", "3", "--curve-grid-step", "0.1"]
    assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
    report = evaluate_hierarchies(exact, recon)
    curve = decay_curve(exact, order=order, runs=3, grid=tuple(i / 10 for i in range(11)), seed=7)
    expected = dataclasses.replace(report, lmi=lmi(report.nmi, curve))
    assert 0.0 < expected.lmi < 1.0
    assert out.read_text(encoding="utf-8") == expected.to_text()


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


@pytest.mark.parametrize("fifo", ["--out", "--manifest-out"])
def test_a_fifo_target_fails_before_anything_is_written(tmp_path, capsys, fifo):
    # os.replace would swap the FIFO (or a device node such as /dev/null)
    # for a regular file holding the output
    paths = {"--out": tmp_path / "e.tsv", "--manifest-out": tmp_path / "e.manifest"}
    for path in paths.values():
        path.write_text(f"older {path.name}\n", encoding="utf-8")
    target = {**paths, fifo: tmp_path / "f"}
    os.mkfifo(target[fifo])
    argv = ["tree", "--levels", "3", "--out", str(target["--out"])]
    assert main(argv + ["--manifest-out", str(target["--manifest-out"])]) == 1
    assert capsys.readouterr().err == f"error: {target[fifo]}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(target[fifo]).st_mode)
    for path in paths.values():
        assert path.read_text(encoding="utf-8") == f"older {path.name}\n"
    assert sorted(os.listdir(tmp_path)) == ["e.manifest", "e.tsv", "f"]


@pytest.mark.parametrize("link", ["--out", "--manifest-out"])
def test_a_symlinked_target_stays_a_link_to_the_new_file(tmp_path, link):
    # os.replace onto the link's own path would swap the link for a regular
    # file and leave the file it names as it was
    paths = {"--out": tmp_path / "e.tsv", "--manifest-out": tmp_path / "e.manifest"}
    real = tmp_path / "elsewhere" / "real.tsv"
    real.parent.mkdir()
    real.write_text("old\n", encoding="utf-8")
    paths[link].symlink_to(real)
    argv = ["tree", "--levels", "2", "--out", str(paths["--out"])]
    assert main(argv + ["--manifest-out", str(paths["--manifest-out"])]) == 0
    assert paths[link].is_symlink() and paths[link].resolve() == real
    written = real.read_text(encoding="utf-8")
    if link == "--out":
        assert written == "1\t2\n1\t3\n"
    else:
        assert written.startswith("subcommand\ttree\n")
    # the temporary file was made beside the file the link names
    assert os.listdir(real.parent) == ["real.tsv"]
    assert sorted(os.listdir(tmp_path)) == ["e.manifest", "e.tsv", "elsewhere"]


def test_sigterm_during_generate_leaves_no_temporary_file(tmp_path):
    # generate draws its objects as it writes them, so a long run spends its
    # time inside the writer; SIGTERM there must remove the temporary output
    # and leave the older output and manifest as they were
    tree, out = tmp_path / "tree.tsv", tmp_path / "g.tsv"
    assert main(["tree", "--levels", "10", "--out", str(tree)]) == 0
    assert main(["generate", "--hierarchy", str(tree), "--objects", "5", "--out", str(out)]) == 0
    older = {path: path.read_bytes() for path in (out, tmp_path / "g.tsv.manifest")}
    src = os.path.dirname(os.path.dirname(hiertag.__file__))
    argv = ["generate", "--hierarchy", str(tree), "--objects", "100000000", "--out", str(out)]
    run = subprocess.Popen(
        [sys.executable, "-m", "hiertag.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("g.tsv.*.tmp")):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        run.send_signal(signal.SIGTERM)
        _, err = run.communicate(timeout=60)
    finally:
        run.kill()
        run.wait()
    assert (run.returncode, err) == (143, "")
    assert {path: path.read_bytes() for path in older} == older
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "disposition", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"]
)
def test_sigterm_waits_while_the_files_are_replaced(tmp_path, monkeypatch, disposition):
    # both files are replaced or neither: SIGTERM is held off across the
    # replaces, and the disposition and signal mask are restored afterwards;
    # a process that ignores SIGTERM still ignores one sent during the write
    held = []
    replace = os.replace

    def spying_replace(src, dst):
        held.append(signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, []))
        if disposition is signal.SIG_IGN:
            os.kill(os.getpid(), signal.SIGTERM)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spying_replace)
    previous = signal.signal(signal.SIGTERM, disposition)
    try:
        assert main(["tree", "--levels", "2", "--out", str(tmp_path / "t.tsv")]) == 0
        assert signal.getsignal(signal.SIGTERM) is disposition
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert held == [True, True]
    assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert sorted(os.listdir(tmp_path)) == ["t.tsv", "t.tsv.manifest"]


@pytest.mark.parametrize("manifest_out", ["e.tsv", "./e.tsv"])
def test_manifest_out_naming_the_output_is_rejected(tmp_path, monkeypatch, capsys, manifest_out):
    monkeypatch.chdir(tmp_path)
    code = main(["tree", "--levels", "3", "--out", "e.tsv", "--manifest-out", manifest_out])
    assert code == 1
    assert capsys.readouterr().err == f"error: --manifest-out {manifest_out!r} names the --out file\n"
    assert os.listdir(tmp_path) == []


def test_manifest_out_linked_to_the_output_is_rejected(tmp_path, monkeypatch, capsys):
    # both temporary files would have the one name beside the linked file
    monkeypatch.chdir(tmp_path)
    os.symlink("e.tsv", "link")
    code = main(["tree", "--levels", "3", "--out", "e.tsv", "--manifest-out", "link"])
    assert code == 1
    assert capsys.readouterr().err == "error: --manifest-out 'link' names the --out file\n"
    assert os.listdir(tmp_path) == ["link"]


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


def test_manifest_without_an_argv_row_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m").write_text("subcommand\ttree\nlevels\t3\n", encoding="utf-8")
    assert main(["--manifest", "m"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: manifest 'm' has no argv line to replay\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["m"]


@pytest.mark.parametrize("files", [[], ["a.manifest", "b.manifest"]], ids=["none", "two"])
def test_manifest_takes_exactly_one_file(capsys, files):
    assert main(["--manifest", *files]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --manifest takes exactly one manifest file\n"
    assert captured.out == ""


def test_undecodable_manifest_error_names_the_file(tmp_path, capsys):
    manifest = tmp_path / "bad.manifest"
    manifest.write_bytes(b"subcommand\ttree\xff\nargv\ttree\t--levels\t2\n")
    code = main(["--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: 'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1


def test_a_manifest_is_read_whole_before_its_argv_row_replays(tmp_path, monkeypatch, capsys):
    # the UTF-8 fault comes after the argv row, and the run does not start
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m").write_bytes(b"argv\ttree\t--levels\t2\t--out\tt.tsv\nversion\t\xff\n")
    assert main(["--manifest", "m"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: m: line 2: 'utf-8' codec can't decode byte 0xff")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["m"]


# one run of every subcommand on a small tree, then a usage error, a replay,
# and a replay whose argv does not parse
_ROUND = [
    ["tree", "--levels", "4", "--out", "exact.tsv"],
    ["generate", "--hierarchy", "exact.tsv", "--objects", "400", "--seed", "2",
     "--out", "corpus.tsv"],
    *(
        ["extract", "corpus.tsv", "--algorithm", algorithm, "--out", f"recon_{algorithm}.tsv"]
        for algorithm in ("a", "b", "heymann", "schmitz")
    ),
    ["evaluate", "exact.tsv", "recon_b.tsv", "--lmi", "--curve-runs", "1",
     "--curve-grid-step", "0.5", "--out", "report.tsv"],
    ["curve", "exact.tsv", "--order", "top-first", "--runs", "2", "--grid-step", "0.25",
     "--out", "curve.tsv"],
    ["randomize", "exact.tsv", "--fraction", "0.3", "--seed", "5", "--out", "random.tsv"],
    ["extract", "corpus.tsv", "--algorithm", "x", "--out", "usage.tsv"],
    ["--manifest", "random.tsv.manifest"],
    ["--manifest", "bad.manifest"],
]  # fmt: skip


def _without_duration(text):
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("duration_s\t"))


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(hiertag.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "hiertag.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    return run.returncode, run.stdout, run.stderr


def _round(directory, monkeypatch, run):
    """Each `_ROUND` argv's exit code, stdout and stderr as `run` runs it in
    `directory`, then every file there; `duration_s` rows are left out."""
    directory.mkdir(exist_ok=True)
    monkeypatch.chdir(directory)
    bad = "subcommand\ttree\nargv\ttree\t--levels\tx\n"
    (directory / "bad.manifest").write_text(bad, encoding="utf-8")
    results = []
    for argv in _ROUND:
        code, out, err = run(argv)
        results.append((argv, code, out, _without_duration(err)))
    files = {
        path.name: _without_duration(path.read_text(encoding="utf-8"))
        for path in directory.iterdir()
    }
    return results, files


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    first = _round(tmp_path / "first", monkeypatch, _in_process)
    codes = [code for _, code, _, _ in first[0]]
    assert codes == [0] * 9 + [2, 0, 1]
    assert "invalid choice: 'x'" in first[0][9][3]
    assert first[0][11][3].startswith("error: bad.manifest: line 2: argv: ")
    # every call again in the same process, then each in a process of its own
    assert _round(tmp_path / "second", monkeypatch, _in_process) == first
    assert _round(tmp_path / "fresh", monkeypatch, _fresh_process) == first


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


# tag d has two parents, b and c
FIVE_TAG_DAG = "a\tb\na\tc\nb\td\nc\td\nd\te\n"
TWO_ROOT_FOREST = "a\tb\na\tc\nd\te\n"


@pytest.mark.parametrize("text", [FIVE_TAG_DAG, TWO_ROOT_FOREST], ids=["dag", "forest"])
@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "h.tsv"],
        ["randomize", "h.tsv", "--fraction", "0.5"],
        ["evaluate", "h.tsv", "h.tsv", "--lmi"],
    ],
    ids=["curve", "randomize", "evaluate-lmi"],
)
def test_rewiring_commands_reject_a_non_tree_naming_the_file(
    tmp_path, monkeypatch, capsys, text, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.tsv").write_text(text, encoding="utf-8")
    assert main(argv + ["--out", "out.tsv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: h.tsv: rewire requires a single-rooted tree\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["h.tsv"]


@pytest.mark.parametrize(
    "recon, message",
    [
        ("a\tb\n", "dag.tsv, r.tsv: mismatched tag sets: only in exact ['c', 'd', 'e'], "
         "only in reconstructed []"),
        (None, "[Errno 2] No such file or directory: 'r.tsv'"),
    ],
    ids=["other-tags", "missing"],
)
def test_evaluate_lmi_reports_the_pair_before_the_tree_check(
    tmp_path, monkeypatch, capsys, recon, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dag.tsv").write_text(FIVE_TAG_DAG, encoding="utf-8")
    if recon is not None:
        (tmp_path / "r.tsv").write_text(recon, encoding="utf-8")
    assert main(["evaluate", "dag.tsv", "r.tsv", "--lmi", "--out", "out.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert "out.tsv" not in os.listdir(tmp_path)


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
        yield "1\t2\n"
        raise ValueError("object stream failed")

    monkeypatch.setattr("hiertag.cli._object_lines", fails_part_way)
    code = main(["generate", "--hierarchy", str(tree), "--objects", "10", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: object stream failed\n"
    assert out.read_text(encoding="utf-8") == "older\n"
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "tree.tsv", "tree.tsv.manifest"]


# the error contract as a property: small inputs, some malformed, and option
# values drawn from the edge of each type. No drawn value that the program
# accepts may do real work: counts stay at a few hundred objects, two curve
# runs and trees under 21 levels, so a fault shows as a wrong outcome, not a
# hang
_CONTRACT_FILES = {
    "tree.tsv": hierarchy_to_text(binary_tree(3)).encode(),
    "dag.tsv": b"a\tb\na\tc\nb\td\nc\td\n",
    "cycle.tsv": b"a\tb\nb\tc\nc\ta\n",
    "corpus.tsv": b"a\n" * 10 + b"a\tb\n" * 5 + b"a\tb\tc\n" * 3,
    "empty.tsv": b"",
    "comments.tsv": b"# nothing\n\n# here\n",
    "one_tag.tsv": b"a\n",
    "bom.tsv": b"\xef\xbb\xbf" + hierarchy_to_text(binary_tree(2)).encode(),
    "not_utf8.tsv": b"a\tb\n\xff\tc\n",
    "empty_field.tsv": b"a\t\tb\n",
}
# each list's first value is a valid one, drawn about half the time, so that
# most runs get past their first check
_FILES = [*_CONTRACT_FILES, "missing.tsv"]
_FLOATS = ["0.5", "-1", "0", "0.2", "1", "2", "nan", "inf", "-inf", "1e308", "x", ""]
_SEEDS = ["0", "-1", "7", "1" + "0" * 30, "x", "1.5"]
_RUNS = ["2", "-1", "0", "1", "x", "1.5"]
_STEPS = ["0.25", "-1", "0", "1e-9", "0.3", "0.5", "1", "2", "nan", "inf", "x"]
_ORDERS = ["random", "top-first", "leaf-first", "sideways"]
_TAGS_PER_OBJECT = [
    "poisson:3", "poisson:0", "poisson:nan", "poisson:inf", "poisson:-1", "poisson:1e308",
    "fixed:0", "fixed:2", "fixed:1000000000", "x",
]
_WALKS = ["uniform:1:3", "uniform:0:0", "uniform:3:1", "uniform:1:1000000000", "uniform:nan:1", "x"]
_PROFILES = [
    "linear-depth", "power-law:1.2", "power-law:nan", "power-law:-1", "power-law:inf",
    "power-law:2000", "x",
]


@st.composite
def _contract_runs(draw):
    """A subcommand's argv, naming its input files by their `_FILES` names,
    and whether argparse must reject it: an option value that fails its
    type or its choices."""
    usage = False

    def choose(values, valid=None):
        return draw(st.sampled_from(valid or values[:1]) | st.sampled_from(values))

    def option(name, values, kind=str, choices=None):
        nonlocal usage
        value = choose(values, choices)
        try:
            kind(value)
        except ValueError:
            usage = True
        usage |= choices is not None and value not in choices
        return [f"{name}={value}"]

    def maybe(name, values, kind=str, choices=None):
        return option(name, values, kind, choices) if draw(st.booleans()) else []

    def flag(name):
        return [name] if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(["generate", "extract", "evaluate", "curve", "randomize", "tree"]))
    if cmd == "generate":
        argv = ["--hierarchy", choose(_FILES)]
        argv += option("--objects", ["300", "-1", "0", "1", "x"], int)
        argv += maybe("--tags-per-object", _TAGS_PER_OBJECT) + maybe("--p-rw", _FLOATS, float)
        argv += maybe("--walk", _WALKS) + maybe("--profile", _PROFILES)
        argv += maybe("--seed", _SEEDS, int)
    elif cmd == "extract":
        algorithms = ("a", "b", "heymann", "schmitz")
        argv = [choose(["corpus.tsv", *_FILES])]
        argv += option("--algorithm", [*algorithms, "x"], choices=algorithms)
        argv += flag("--with-ids") + flag("--force-single-root")
        for name in ("--omega", "--z-threshold", "--similarity-threshold", "--t-subsume"):
            argv += maybe(name, _FLOATS, float)
        argv += maybe("--centrality", [*CENTRALITY_KINDS, "x"], choices=CENTRALITY_KINDS)
        argv += maybe("--min-cooccurrence", ["3", "-1", "0", "1" + "0" * 30, "x"], int)
    elif cmd == "evaluate":
        argv = [choose(_FILES), choose(_FILES)] + flag("--lmi")
        argv += maybe("--curve-order", _ORDERS, choices=_ORDERS[:3])
        argv += maybe("--curve-runs", _RUNS, int) + maybe("--curve-grid-step", _STEPS, float)
        argv += maybe("--seed", _SEEDS, int)
    elif cmd == "curve":
        argv = [choose(_FILES)] + maybe("--order", _ORDERS, choices=_ORDERS[:3])
        argv += maybe("--runs", _RUNS, int) + maybe("--grid-step", _STEPS, float)
        argv += maybe("--seed", _SEEDS, int)
    elif cmd == "randomize":
        argv = [choose(_FILES)] + option("--fraction", _FLOATS, float)
        argv += maybe("--order", _ORDERS, choices=_ORDERS[:3]) + maybe("--seed", _SEEDS, int)
    else:
        argv = option("--levels", ["3", "-1", "0", "1", "21", "40", "1" + "0" * 20, "x", "2.5"], int)
    return [cmd, *argv], usage


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    for name, content in _CONTRACT_FILES.items():
        (path / name).write_bytes(content)
    return path


@settings(deadline=None, max_examples=300)
@given(run=_contract_runs(), older=st.booleans(), unwritable=st.booleans())
def test_every_run_ends_in_one_of_the_three_contract_outcomes(
    contract_inputs, run, older, unwritable
):
    argv, usage = run
    argv = [str(contract_inputs / a) if a in _FILES else a for a in argv]
    # a new directory per example, left for pytest to remove: removing files
    # one by one is slow on some disks
    out_dir = tempfile.mkdtemp(dir=contract_inputs)
    out = os.path.join(out_dir, "out.tsv")
    targets = {out: "older output\n", f"{out}.manifest": "older manifest\n"}
    if unwritable:
        # the output is written before the manifest fails to open
        argv += ["--manifest-out", os.path.join(out_dir, "missing", "m")]
        del targets[f"{out}.manifest"]
    if older:
        for path, text in targets.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert stdout.getvalue() == ""
    # exit 2 is argparse's, for usage errors alone
    assert (code == 2) == usage, err
    assert code != 0 or not unwritable
    if code == 0:
        assert err == ""
        assert all(os.path.isfile(path) for path in targets)
    else:
        assert code in (1, 2), err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        for path, text in targets.items():
            if older:
                with open(path, encoding="utf-8") as fh:
                    assert fh.read() == text
            else:
                assert not os.path.exists(path)
    # and no temporary file is left behind
    written = [os.path.basename(p) for p in targets if older or code == 0]
    assert sorted(os.listdir(out_dir)) == sorted(written)
