"""One workload run in a fresh process: set up, run jobs, check answers.

Usage: python3 child.py <plan.json>

The plan (written by run.py) names the mode, the time budget, the scenario
files and the jobs.  Set-up imports emapalg and loads every scenario file
once, then prints "ready" so the parent can time it.  The child then runs the
job list in passes, one job after another, through ``emapalg.cli.main``:
mode "time" repeats passes while the next one is expected to end within the
budget, modes "trace" and "count" run exactly one pass with the layer
instrumentation installed.  In mode "time" each job's time is also rescaled
to the reference host speed (see ``speed.py``).  The result goes to the
plan's result file.
"""

import json
import os
import resource
import sys
import time
import traceback

import checks
import speed


def plain_timed(fn):
    t0 = time.perf_counter()
    return_value = fn()
    wall = time.perf_counter() - t0
    return return_value, wall, wall


def run_pass(main, jobs, out_path, timed):
    """Run the jobs once; return (times, times at reference speed, failures).
    A job that raises is timed up to the exception."""
    times, ref_times, failures = [], [], []
    for job in jobs:
        argv = job["argv"][:2] + ["--format", "machine", "--output", out_path] + job["argv"][2:]
        if os.path.exists(out_path):
            os.remove(out_path)
        failed = []

        def call():
            try:
                return main(argv)
            except Exception:
                failed.append(traceback.format_exc(limit=-3))

        code, elapsed, ref = timed(call)
        times.append(elapsed)
        ref_times.append(ref)
        if failed:
            failures.append("%s: %s" % (job["name"], failed[0]))
            continue
        if code != 0:
            failures.append("%s: exit code %s" % (job["name"], code))
            continue
        with open(out_path, "rb") as fh:
            raw = fh.read()
        try:
            reason = checks.check(job["check"], raw)
        except (ValueError, KeyError, TypeError) as exc:
            reason = "unreadable report: %r" % (exc,)
        if reason:
            failures.append("%s: %s" % (job["name"], reason))
    return times, ref_times, failures


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    from emapalg import cli
    from emapalg.scenario import load_scenario

    for path in plan["scenarios"]:
        load_scenario(path)
    print("ready", flush=True)
    if plan["mode"] == "setup":
        return 0

    import layers

    probe = None
    if plan["mode"] == "trace":
        probe = layers.Tracer()
    elif plan["mode"] == "count":
        probe = layers.OpCounter()
    if probe is not None:
        probe.install()

    out_path = os.path.join(os.path.dirname(plan_path), "report-%d.json" % os.getpid())
    sampler = speed.Sampler() if plan["mode"] == "time" else None
    if sampler is not None:
        sampler.start()
    passes, ref_passes, failures = [], [], []
    start = time.perf_counter()
    try:
        while True:
            times, ref_times, fails = run_pass(
                cli.main, plan["jobs"], out_path,
                sampler.timed if sampler is not None else plain_timed)
            passes.append(times)
            ref_passes.append(ref_times)
            failures.extend(fails)
            elapsed = time.perf_counter() - start
            if plan["mode"] != "time" or elapsed + sum(times) > plan["seconds"]:
                break
    finally:
        if sampler is not None:
            sampler.stop()
    if os.path.exists(out_path):
        os.remove(out_path)

    result = {
        "passes": passes,
        "ref_passes": ref_passes,
        "kernel_times": sampler.times if sampler is not None else [],
        "attempted": sum(len(p) for p in passes),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": layers.scalar_backend(),
        "layers": probe.metrics() if probe is not None else {},
        "edges": probe.call_edges() if isinstance(probe, layers.Tracer) else [],
    }
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
