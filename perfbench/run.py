"""hiertag benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
A run has a fixed number of inputs per workload; input k is generated from
seed 1000 * --seed + k. With `--trace 0` the run passes over its inputs
with untraced iterations at least three times, and more while `--seconds` allow,
times a fixed calibration kernel between steps, and reports an iteration's
mean time in units of the kernel's mean time. With `--trace 1` it runs an untraced
iteration and then a traced, decomposed one on each input and reports the
per-layer metrics as medians over those rounds.
Human-readable lines come first; the last line of standard output is the
JSON result. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from calib import Calibration
from spans import Tracer, check_name, check_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

SETUP_PROCESSES = 2
SETUP_EVERY_S = 8.0
MIN_PASSES = 3
SEEDS_PER_RUN = 1000
SETUP_TIMEOUT_S = 120

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_rel", "calib"),
    ("peak_rss_mb", "MB"),
    ("quality", "score"),
)

# Set-up in a fresh interpreter: import the package, write the fixed inputs.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
here, src, name, workdir = sys.argv[1:]
sys.path[:0] = [here, src]
import workloads
workloads.WORKLOADS[name]().setup(workdir)
print(time.perf_counter() - start)
"""


def setup_sample(name: str, workdir: str, processes: int) -> float:
    """One set-up sample: the fastest of `processes` fresh set-up processes
    started back to back, each waited for in turn. Host noise only ever
    slows a set-up, so the faster of a pair is the one a burst missed."""
    samples = []
    for _ in range(processes):
        out = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, HERE, SRC, name, out],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(out, ignore_errors=True)
    return min(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_seed(seed: int, k: int) -> int:
    return SEEDS_PER_RUN * seed + k


def passes(
    seconds: float, inputs: int, step, minimum: int = MIN_PASSES, before=lambda: None
) -> list[list]:
    """Call step(k) for each input k = 0 .. inputs-1, in passes: `minimum`
    passes, then more while the next whole pass is expected to end within
    `seconds` of the start. Returns, per input, its results in pass order.
    Before each call, before() runs and garbage left by the previous call
    is collected, both outside the call's timing."""
    by_input: list[list] = [[] for _ in range(inputs)]
    start = time.perf_counter()
    last = 0.0
    while len(by_input[0]) < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for k in range(inputs):
            before()
            gc.collect()
            by_input[k].append(step(k))
        last = time.perf_counter() - t0
    return by_input


def fastest_steps(runs: list) -> dict[str, float]:
    """Each step's fastest time over the iterations of one input."""
    return {step: min(it.steps[step] for it in runs) for step in runs[0].steps}


def iteration_s(by_input: list[list]) -> float:
    """Mean time of an iteration's steps over every iteration of the run."""
    return statistics.fmean(sum(it.steps.values()) for runs in by_input for it in runs)


# A shared host slows everything that runs on it by up to about 1.9x, in
# spells from a fraction of a second to minutes, so an iteration's time in
# seconds moves by a third between runs of the same code. The calibration
# kernel runs between steps and slows with them; the ratio of the two
# mean times over the whole run is the iteration's cost in kernel units,
# which only a change to the program moves.
def end_to_end(
    wl, by_input: list[list], setup: list[float], calibration: list[float]
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_rel": iteration_s(by_input) / statistics.fmean(calibration),
        "peak_rss_mb": peak_rss_mb(),
        "quality": wl.quality([runs[0] for runs in by_input]),
    }


def stage_metrics(wl, by_input: list[list]) -> list[tuple[str, float, str]]:
    """The per-step figures of this workload, each a mean over inputs of the
    step's fastest time or of its score."""
    fastest = [fastest_steps(runs) for runs in by_input]
    rows = []
    for name, key, unit in wl.stages:
        if unit == "score":
            rows.append((name, statistics.fmean(runs[0].quality[key] for runs in by_input), unit))
        else:
            rows.append((name, statistics.fmean(f[key] for f in fastest), unit))
    return rows


def repeat_mismatches(by_input: list[list]) -> list[str]:
    """Every pass over the same input must give the same scores."""
    return [
        f"input {k}: pass {n} scores differ from pass 0"
        for k, runs in enumerate(by_input)
        for n, it in enumerate(runs[1:], 1)
        if it.quality != runs[0].quality
    ]


def run_traced(wl, tally, seed: int, seconds: float, mismatches: list[str]) -> list[dict[str, float]]:
    from workloads import layer_metrics

    def round_(k: int) -> dict[str, float]:
        untraced, reference = wl.iterate(tally, input_seed(seed, k))
        tr = Tracer()
        t0 = time.perf_counter()
        pending = wl.traced(tr, reference, input_seed(seed, k))
        traced_wall = time.perf_counter() - t0
        mismatches.extend(f"traced {label} differs from untraced" for label, same in pending if not same())
        return layer_metrics(tr, untraced, traced_wall)

    return [m for runs in passes(seconds, wl.inputs, round_, minimum=1) for m in runs]


def context(args, wl, iterations: int, setup: list[float], calibration: list[float]) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.inputs,
        "iterations": iterations,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "corpus_file_bytes": wl.corpus_bytes(),
        "setup_samples_s": setup,
        "calibration_mean_s": statistics.fmean(calibration) if calibration else None,
    }


def measure(wl, args, workdir: str, setup_processes: int = SETUP_PROCESSES) -> dict:
    """Set up, run and check one workload; return the result object.

    Set-up is sampled once at the start and, in an untraced run, again
    before an iteration whenever SETUP_EVERY_S have passed since the last
    sample, so that its median covers the whole run rather than one moment
    of it. In an untraced run the calibration kernel is timed between steps,
    at most once every calib.EVERY_S.
    """
    from workloads import PER_LAYER, Tally

    setup: list[float] = []
    last_sample = [0.0]

    def sample_setup() -> None:
        setup.append(setup_sample(wl.name, workdir, setup_processes))
        last_sample[0] = time.perf_counter()

    def sample_setup_when_due() -> None:
        if time.perf_counter() - last_sample[0] >= SETUP_EVERY_S:
            sample_setup()

    calibration = Calibration()
    sample_setup()
    wl.setup(os.path.join(workdir, "run"))
    tally = Tally()
    mismatches: list[str] = []
    try:
        if args.trace:
            samples = run_traced(wl, tally, args.seed, args.seconds, mismatches)
            metrics = {
                name: (statistics.median(s[name] for s in samples), unit) for name, unit in PER_LAYER
            }
            iterations = len(samples)
        else:
            by_input = passes(
                args.seconds,
                wl.inputs,
                lambda k: wl.iterate(tally, input_seed(args.seed, k), calibration.sample_when_due)[0],
                before=sample_setup_when_due,
            )
            mismatches += repeat_mismatches(by_input)
            values = end_to_end(wl, by_input, setup, calibration.times)
            print(f"stage iteration_s {iteration_s(by_input)!r} s")
            for name, value, unit in stage_metrics(wl, by_input):
                print(f"stage {name} {value!r} {unit}")
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            iterations = sum(len(runs) for runs in by_input)
    except Exception:  # the result must still report the failure
        traceback.print_exc()
        tally.record("iteration", ["raised an exception"])
        metrics, iterations = {}, 0
    for problem in tally.problems + mismatches:
        print(f"check failed: {problem}")
    print("context " + json.dumps(context(args, wl, iterations, setup, calibration.times)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"failed/attempted {tally.failed}/{tally.attempted}")
    return {
        "correct": tally.failed == 0 and not mismatches and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            check_name(name): {"value": value, "unit": check_unit(unit)}
            for name, (value, unit) in metrics.items()
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("paper-cli", "wide-forest", "calibrate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hiertag", "__init__.py")):
        print(f"error: no hiertag package under {SRC}; run from a hiertag checkout", file=sys.stderr)
        return 2
    # HIERTAG_THREADS would change how the CLI runs; the benchmark is single-threaded
    os.environ.pop("HIERTAG_THREADS", None)
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = measure(WORKLOADS[args.workload](), args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
