"""Verdict benchmark for zonalkit: time ``zonalkit verify`` and check every verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

A round is one fresh interpreter (``round.py``) that runs repetitions of the
workload's verify calls.  With ``--trace 0`` the run times a few set-up
probes, one round that repeats the workload for about ``--seconds``, and a
few more probes, and prints the end-to-end metrics as medians over the
repetitions.  Except on ``montecarlo``, every time is scaled by the speed
``calib.Speedometer`` saw while it was taken and reported at the reference
speed, so that the machine's changing speed cancels out.  With ``--trace 1``
it runs one untraced repetition and one traced repetition on a single
worker and prints the per-layer metrics.  Every report is checked against
``reference.py`` after the timed region; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every cell was answered
correctly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from checks import Outcome, check_kernels, check_report
from reference import cell_key
from tracer import ROUTES
from workloads import WORKLOADS, suite_seed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 6
DEADLINE_S = 170.0
# numpy's BLAS would start a spinning thread per CPU at import, on top of the
# round and its workers; zonalkit does no BLAS-sized linear algebra.
ROUND_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "verdict_s": "s",
    "slowest_cell_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _layer_names() -> list[str]:
    r = "radialexpr."
    names = [r + n for n in (
        "mul.self_s", "mul.calls", "mul.term_pairs", "mul.terms_out",
        "add.self_s", "add.calls", "scale.self_s",
        "laplacian.self_s", "laplacian.calls", "laplacian.terms_in", "laplacian.terms_out",
        "dir_deriv.self_s", "dir_deriv.terms_in", "kelvin.self_s", "kelvin.terms_in",
        "digest.self_s", "digest.calls", "digest.terms_in", "digest.distinct_ratio",
        "equals.self_s",
        "eval_float_batch.self_s", "eval_float_batch.calls", "eval_float_batch.term_points",
        "substitute_point.self_s", "peak_terms")]
    names += ["gegenbauer.zonal_direct.total_s", "gegenbauer.zonal_direct.calls",
              "gegenbauer.zonal_direct.distinct_ratio",
              "gegenbauer.zonal_lift.total_s", "gegenbauer.zonal_lift.calls",
              "cliffordalg.xyc_power_real.total_s", "cliffordalg.xyc_power_real.calls",
              "cliffordalg.xyc_power_real.distinct_ratio",
              "zonalalg.self_s", "zonalalg.peak_terms"]
    for route in ROUTES:
        names += [f"zonalroutes.{route}.{m}" for m in ("total_s", "calls", "distinct_ratio")]
    names += ["verify.cells", "verify.cell_sum_s", "verify.runner_overhead_s",
              "verify.report_json.self_s", "verify.pool.idle_s",
              "trace.root_self_s", "trace.overhead_s"]
    return names


PER_LAYER = _layer_names()


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class RoundFailed(Exception):
    pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a round and its pool workers, and wait until all of them are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_round(root: str, workload: str, seed: int, rdir: str, deadline: float,
              until: float = 0.0, trace: bool = False, setup_only: bool = False) -> dict:
    """Start one round in a fresh interpreter and return its result.json."""
    os.makedirs(rdir)
    with open(os.path.join(rdir, "round.log"), "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
               "--seed", str(seed), "--out", rdir, "--spawned-at", repr(spawned),
               "--until", repr(until)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True, env=ROUND_ENV)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RoundFailed(f"round in {rdir} ran past the run's deadline") from None
        finally:
            _stop_group(proc)
    if code != 0:
        raise RoundFailed(f"round in {rdir} exited with {code}; see round.log")
    with open(os.path.join(rdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_round(workload: str, seed: int, result: dict) -> Outcome:
    """Check every suite report of every repetition in a round."""
    outcome = Outcome()
    ranges = dict(WORKLOADS[workload]["suites"])
    for calls in result["reps"]:
        for call in calls:
            report, error = None, call.get("error")
            if call.get("report") and os.path.isfile(call["report"]):
                with open(call["report"], encoding="utf-8") as fh:
                    report = json.load(fh)
                call["cells_s"] = {repr(cell_key(call["suite"], c["params"])): c["elapsed_ms"] / 1000.0
                                   for c in report["cells"]}
            elif error is None:
                error = f"exit code {call.get('exit')}"
            outcome.add(check_report(call["suite"], ranges[call["suite"]], report,
                                     suite_seed(workload, seed), error))
    return outcome


def _scaled(call: dict, seconds: float) -> float:
    """``seconds`` of a verify call at the reference speed, the probes' share taken out."""
    return seconds * (1 - call["probe_share"]) * call["speed"]


def rep_figures(calls: list[dict]) -> dict[str, float]:
    """One repetition's figures: as measured, and scaled to the reference speed."""
    return {
        "verdict_s": sum(_scaled(c, c["wall_s"]) for c in calls),
        "cpu_s": sum(_scaled(c, c["cpu_s"]) for c in calls),
        "raw_verdict_s": sum(c["wall_s"] for c in calls),
        "cell_sum_s": sum(sum(c.get("cells_s", {}).values()) for c in calls),
        "speed": statistics.fmean(c["speed"] for c in calls),
    }


def slowest_cell(reps: list[list[dict]]) -> float:
    """The largest per-cell median, over repetitions, of the scaled cell time."""
    per_cell: dict[str, list[float]] = {}
    for calls in reps:
        for call in calls:
            for key, seconds in call.get("cells_s", {}).items():
                per_cell.setdefault(key, []).append(_scaled(call, seconds))
    return max((statistics.median(v) for v in per_cell.values()), default=0.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zonalkit", "__init__.py")):
        print("run from the root of a zonalkit checkout (src/zonalkit is missing)",
              file=sys.stderr)
        return 2
    out = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = WORKLOADS[args.workload]
    outcome = Outcome()
    metrics: dict[str, float] = {}

    def one(name: str, **kw) -> dict:
        result = run_round(root, args.workload, args.seed, os.path.join(out, name),
                           deadline, **kw)
        outcome.add(check_round(args.workload, args.seed, result))
        return result

    def probes(first: int, count: int) -> list[float]:
        return [run_round(root, args.workload, args.seed, os.path.join(out, f"setup{i}"),
                          deadline, setup_only=True)["setup_s"]
                for i in range(first, first + count)]

    try:
        if args.trace:
            plain = one("untraced")
            traced = one("traced", trace=True)
            plain_rep = rep_figures(plain["reps"][0])
            traced_rep = rep_figures(traced["reps"][0])
            metrics.update(traced["layers"])
            metrics["verify.cells"] = sum(len(c.get("cells_s", {})) for c in traced["reps"][0])
            metrics["verify.cell_sum_s"] = traced_rep["cell_sum_s"]
            metrics["verify.runner_overhead_s"] = (traced_rep["raw_verdict_s"]
                                                   - traced_rep["cell_sum_s"])
            metrics["verify.pool.idle_s"] = (plain["threads"] * plain_rep["raw_verdict_s"]
                                             - plain_rep["cell_sum_s"])
            print(f"traced repetition: {traced['spans']} spans in "
                  f"{traced_rep['raw_verdict_s']:.2f} s; untraced "
                  f"{plain_rep['raw_verdict_s']:.2f} s", file=sys.stderr)
        else:
            # set-up probes before the round and after it, so they sample
            # the machine at both ends of the run
            setups = probes(0, SETUP_PROBES // 2)
            result = one("round", until=start + args.seconds)
            setups += probes(SETUP_PROBES // 2, SETUP_PROBES - SETUP_PROBES // 2)
            reps = [rep_figures(calls) for calls in result["reps"]]
            metrics["verdict_s"] = statistics.median(r["verdict_s"] for r in reps)
            metrics["slowest_cell_s"] = slowest_cell(result["reps"])
            metrics["cpu_s"] = statistics.median(r["cpu_s"] for r in reps)
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
            metrics["setup_s"] = statistics.median(setups)
            print(f"{len(reps)} repetitions in {time.monotonic() - start:.1f} s; "
                  f"median raw verdict {statistics.median(r['raw_verdict_s'] for r in reps):.3f} s "
                  f"at {statistics.median(r['speed'] for r in reps):.3f} of the reference speed",
                  file=sys.stderr)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the program's kernel expansion against the reference recurrence, untimed
    sys.path.insert(0, os.path.join(root, "src"))
    from zonalkit.gegenbauer import zonal_direct
    checked_at = time.monotonic()
    kernel_problems = check_kernels(zonal_direct, work["kernels"])
    print(f"kernel check {time.monotonic() - checked_at:.1f} s; "
          f"run {time.monotonic() - start:.1f} s", file=sys.stderr)

    for line in outcome.failures[:20] + outcome.problems + kernel_problems:
        print(f"problem: {line}", file=sys.stderr)
    names = PER_LAYER if args.trace else list(END_TO_END)
    units = {n: layer_unit(n) for n in PER_LAYER} if args.trace else END_TO_END
    for name in names:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload} cells attempted = {outcome.attempted}, failed = {outcome.failed}")
    correct = not kernel_problems and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
