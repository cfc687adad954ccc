"""One round of a workload in a fresh interpreter.

Run from the root of a zonalkit checkout; ``run.py`` starts it.  The round
imports zonalkit from ``src`` and then runs repetitions: each calls
``zonalkit.cli.main(["verify", ...])`` in-process once per suite of the
workload and writes the suites' JSON reports into ``--out/rep<i>``.  It
starts another repetition while the next one is expected to end by
``--until`` (a ``time.monotonic`` reading), and always runs at least one.
A suite that raises is recorded with its error and the round goes on.
Every verify call is timed in wall and CPU time while a ``calib.Speedometer``
samples the machine's speed, in the round process and in its pool workers;
``result.json`` holds, per call, those times, the mean speed and the share
of time the speedometer's probes took.

Times come from ``time.monotonic`` so that ``--spawned-at``, taken by the
parent just before it started this process, measures set-up; set-up is
scaled by the speed the speedometer saw while zonalkit was imported.  With
``--setup-only`` the round stops where the first verify call would begin.
With ``--trace`` every suite runs on one worker with the layer functions
wrapped, and the round also writes ``spans.jsonl`` and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import calib
from workloads import WORKLOADS, suite_seed, verify_argv


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of this process and its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "zonalkit", "__init__.py")):
        print(f"no zonalkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    meter = calib.Speedometer(worker_dir=args.out)
    meter.start()
    imported_from = time.monotonic()
    import zonalkit
    import zonalkit.cli
    setup_end = time.monotonic()
    speed, probe_share = meter.window(imported_from, setup_end)
    raw_setup_s = setup_end - args.spawned_at
    setup_s = raw_setup_s * (1 - probe_share) * speed

    work = WORKLOADS[args.workload]
    tracer = None
    if args.trace or args.setup_only or not work["speed_scaled"]:
        meter.stop()
        meter = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install(zonalkit)

    threads = 1 if args.trace else work["threads"]
    seed = suite_seed(args.workload, args.seed)
    if args.setup_only:
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    else:
        reps: list[list[dict]] = []
        longest = 0.0
        while True:
            started = time.monotonic()
            rdir = os.path.join(args.out, f"rep{len(reps)}")
            os.makedirs(rdir)
            calls = []
            for suite, ranges in work["suites"]:
                report = os.path.join(rdir, f"{suite}.json")
                cpu0, _ = _usage()
                t0 = time.monotonic()
                try:
                    code = zonalkit.cli.main(verify_argv(suite, ranges, threads, seed, report))
                    entry = {"suite": suite, "report": report, "exit": code}
                except Exception as exc:  # a suite that raises fails its cells; the round goes on
                    entry = {"suite": suite, "report": None, "error": repr(exc)}
                t1 = time.monotonic()
                entry.update(wall_s=t1 - t0, cpu_s=_usage()[0] - cpu0, span=(t0, t1))
                calls.append(entry)
            reps.append(calls)
            longest = max(longest, time.monotonic() - started)
            if time.monotonic() + longest > args.until:
                break
        if meter:
            meter.stop()
            meter.collect()
        for entry in (c for calls in reps for c in calls):
            entry["speed"], entry["probe_share"] = meter.window(*entry.pop("span")) if meter \
                else (1.0, 0.0)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "peak_rss_mb": _usage()[1],
                  "threads": threads, "reps": reps}
        if tracer is not None:
            traced_s = sum(c["wall_s"] for c in reps[0])
            result["layers"] = layer_metrics(tracer.spans, traced_s)
            result["layers"]["trace.overhead_s"] = len(tracer.spans) * tracer.span_cost()
            result["spans"] = len(tracer.spans)
            tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
