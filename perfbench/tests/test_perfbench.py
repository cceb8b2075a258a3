"""Tests for the benchmark's own code: span arithmetic, names, checks and a
tiny-size run of every workload, untraced and traced.

    python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from calib import Calibration, kernel, kernel_input  # noqa: E402
from spans import Tracer, check_name, check_unit, self_time  # noqa: E402

from hiertag import binary_tree, decay_curve  # noqa: E402

TINY = {
    "paper-cli": lambda: workloads.PaperCli(levels=5, objects=2000),
    "wide-forest": lambda: workloads.WideForest(levels=5, objects=2000),
    "calibrate": lambda: workloads.Calibrate(levels=4, runs=2),
}


def test_self_time_subtracts_children():
    assert self_time(5.0, [1.0, 1.5]) == 2.5
    assert self_time(2.0, []) == 2.0
    # noise can make children outlast the parent; that stays visible
    assert self_time(1.0, [0.75, 0.5]) == -0.25


def test_tracer_totals_repeated_spans_and_missing_children():
    tr = Tracer()
    tr.spans += [("parent", 4.0), ("child", 1.0), ("child", 0.5), ("other", 2.0)]
    assert tr.total("child") == 1.5
    assert tr.calls("child") == 2
    assert tr.per_call("child") == 0.75
    assert tr.per_call("absent") == 0.0
    assert tr.self_time("parent", ["child", "absent"]) == 2.5


def test_tracer_span_records_duration_even_on_error():
    tr = Tracer()
    with pytest.raises(KeyError):
        with tr.span("step"):
            raise KeyError("boom")
    assert tr.calls("step") == 1 and tr.total("step") >= 0.0
    assert tr.call("sum", sum, [1, 2]) == 3
    tr.count("cells")
    tr.count("cells", 2)
    tr.gauge("tags", 7)
    tr.gauge("tags", 9)
    assert tr.counters == {"cells": 3} and tr.gauges == {"tags": 9}


@pytest.mark.parametrize("name", ["wall_s", "cli.main_s.tree", "a-b.c_d", "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65, "a\n"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_units():
    for unit in ("s", "ms", "1/s", "count", "%", "MB"):
        assert check_unit(unit) == unit
    for unit in ("", "a b", "x" * 17):
        with pytest.raises(ValueError):
            check_unit(unit)


def test_benchmark_json_matches_what_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        check_name(m["name"])
        check_unit(m["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= spec["end_to_end"][0].items()


def test_passes_cover_every_input_the_minimum_number_of_times():
    assert run.passes(0, 2, lambda k: k) == [[0] * run.MIN_PASSES, [1] * run.MIN_PASSES]
    calls = []
    assert run.passes(0, 2, lambda k: k, minimum=1, before=lambda: calls.append(1)) == [[0], [1]]
    assert len(calls) == 2
    assert run.input_seed(2, 5) == 2005


def iteration(steps, quality=None):
    return workloads.Iteration(sum(steps.values()), steps, {}, 0.0, 0, dict(quality or {}))


def test_fastest_steps_takes_each_step_at_its_fastest_pass():
    runs = [iteration({"a": 2.0, "b": 1.0}), iteration({"a": 1.5, "b": 3.0})]
    assert run.fastest_steps(runs) == {"a": 1.5, "b": 1.0}


def test_wall_rel_is_the_mean_iteration_over_the_mean_calibration_time():
    by_input = [[iteration({"a": 2.0, "b": 1.0}), iteration({"a": 0.5, "b": 0.5})], [iteration({"a": 2.0})]]
    assert run.iteration_s(by_input) == 2.0
    values = run.end_to_end(workloads.Workload(), by_input, [0.3, 0.1, 0.2], [0.5, 1.5, 2.0])
    assert values["wall_rel"] == 1.5
    assert values["setup_s"] == 0.2


def test_calibration_kernel_is_deterministic_and_timed():
    calibration = Calibration()
    calibration.sample()
    calibration.sample()
    assert len(calibration.times) == 2 and all(t > 0 for t in calibration.times)
    assert calibration.expected == kernel(kernel_input())


def test_repeated_passes_must_give_the_same_scores():
    same = [iteration({"a": 1.0}, {"nmi": 0.5}), iteration({"a": 2.0}, {"nmi": 0.5})]
    other = [iteration({"a": 1.0}, {"nmi": 0.5}), iteration({"a": 1.0}, {"nmi": 0.25})]
    assert run.repeat_mismatches([same]) == []
    assert run.repeat_mismatches([same, other]) == ["input 1: pass 1 scores differ from pass 0"]


def test_quality_is_the_product_of_mean_scores():
    wl = workloads.PaperCli()
    its = [
        iteration({}, {"nmi_a": 0.5, "nmi_b": 1.0, "nmi_heymann": 0.5, "nmi_schmitz": 0.0}),
        iteration({}, {"nmi_a": 1.0, "nmi_b": 1.0, "nmi_heymann": 0.5, "nmi_schmitz": 0.0}),
    ]
    assert wl.quality(its) == 0.75 * 0.5


def test_cell_decomposition_matches_decay_curve():
    h = binary_tree(4)
    fractions = workloads.grid("0.25")
    for order in ("top-first", "leaf-first", "random"):
        traced = workloads.traced_curve(Tracer(), h, order, 3, fractions, seed=5)
        assert traced == decay_curve(h, order=order, runs=3, grid=fractions, seed=5)


def test_checks_flag_bad_outputs(tmp_path):
    exact = binary_tree(3)
    assert workloads.check_reconstruction("a", exact, exact) == []
    forest = type(exact)(exact.tags, [("1", "2")])
    assert "algorithm a did not return a spanning tree" in workloads.check_reconstruction("a", forest, exact)
    assert workloads.check_reconstruction("b", forest, exact) == []
    smaller = binary_tree(2)
    assert workloads.check_reconstruction("b", smaller, exact) == ["tag set differs from the exact tree's"]
    rising = tmp_path / "rising.curve"
    rising.write_text("0\t0.5\n0.5\t0.75\n1\t0.25\n")
    assert workloads.check_curve(str(rising), (0.0, 0.5, 1.0)) == ["decay curve is not non-increasing"]
    assert workloads.check_unit_interval("lmi", 1.5)
    tally = workloads.Tally()
    tally.record("ok", [])
    tally.record("bad", ["one", "two"])
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_each_workload(name, trace, tmp_path, capsys):
    args = argparse.Namespace(workload=name, seed=3, seconds=0, trace=trace)
    result = run.measure(TINY[name](), args, str(tmp_path), setup_processes=1)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if trace == 0 else workloads.PER_LAYER
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name != "wide-forest":
        assert result["metrics"]["cli.self_s"]["value"] > 0
    json.dumps(result)


def test_manifest_duration(tmp_path):
    manifest = tmp_path / "out.tsv.manifest"
    manifest.write_text("subcommand\ttree\nduration_s\t0.012\nargv\ttree\n")
    assert workloads.manifest_duration(str(manifest)) == 0.012
    assert workloads.manifest_duration(str(tmp_path / "missing")) is None


def test_traced_run_reports_a_changed_output(tmp_path):
    wl = TINY["paper-cli"]()
    wl.setup(str(tmp_path))
    wl.iterate(workloads.Tally(), seed=3)
    with open(wl.path("a.eval"), "a", encoding="utf-8") as fh:
        fh.write("extra\t1\n")
    failing = [label for label, same in wl.traced(Tracer(), None, seed=3) if not same()]
    assert failing == ["evaluate a"]


def test_run_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(PERFBENCH, copy, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "hiertag" in proc.stderr
