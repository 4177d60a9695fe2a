#!/usr/bin/env python3
"""emapalg benchmark: closed-loop CLI workloads with answer checks.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh child processes
(``child.py``) that import emapalg from ``src/``; jobs are issued one after
another through ``emapalg.cli.main`` by a single client, with no threads.

--trace 0 prints the end-to-end metrics.  Their times are rescaled to a
fixed reference host speed, sampled while they are measured (``speed.py``),
because the shared host changes speed by up to 2x; the wall times are
printed too, on the lines starting with "wall".
  run_s        time of one pass over the job list, the sum of its job times,
               averaged over the run's passes; passes repeat while the next
               one fits in --seconds, at least one
  setup_s      median over SETUP_SAMPLES children of the time from process
               start until emapalg is imported and each scenario file loaded
               once
  peak_rss_mb  ru_maxrss of the child that ran the jobs
  job_p50_s    median time of a single job
--trace 1 runs one untraced pass, one traced pass and one counting pass,
each in its own child, and prints the per-layer metrics.

Jobs attempted and failed (exit code, exception or wrong answer) are the
result's ``attempted`` and ``failed``.  The last line of standard output is
the result as JSON; the exit code is nonzero when any job failed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import speed  # noqa: E402
import workloads  # noqa: E402
from metrics import COMMANDS, END_TO_END, PER_LAYER  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def git_commit():
    """The checked-out commit, read without git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts the children of one benchmark run inside a scratch directory."""

    def __init__(self, work, scenarios, jobs):
        self.work = work
        self.scenarios = scenarios
        self.jobs = jobs
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        self._count = 0

    def child(self, mode, seconds=0):
        """Run one child; return (seconds until it was ready, the same at
        reference speed, its result)."""
        self._count += 1
        plan_path = os.path.join(self.work, "plan-%d.json" % self._count)
        result_path = os.path.join(self.work, "result-%d.json" % self._count)
        with open(plan_path, "w") as fh:
            json.dump({"mode": mode, "seconds": seconds, "scenarios": self.scenarios,
                       "jobs": self.jobs, "result": result_path}, fh)
        kernel_times = [speed.time_kernel() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), plan_path],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            kernel_times += [speed.time_kernel() for _ in range(3)]
            proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("%s child ran past the deadline" % mode)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError("%s child failed (exit code %s)" % (mode, proc.returncode))
        setup_ref = speed.rescale(setup, kernel_times)
        if mode == "setup":
            return setup, setup_ref, None
        with open(result_path) as fh:
            return setup, setup_ref, json.load(fh)


def timed_run(runner, seconds):
    setups = [runner.child("setup")[:2] for _ in range(SETUP_SAMPLES)]
    res = runner.child("time", seconds)[2]
    res["metrics"] = {
        # the mean over all passes covers the whole run; a median of two or
        # three passes would report whichever speed one pass happened to meet
        "run_s": statistics.fmean(sum(p) for p in res["ref_passes"]),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "job_p50_s": statistics.median(t for p in res["ref_passes"] for t in p),
    }
    res["wall"] = {
        "run_s": statistics.fmean(sum(p) for p in res["passes"]),
        "setup_s": statistics.median(wall for wall, _ in setups),
        "job_p50_s": statistics.median(t for p in res["passes"] for t in p),
        "kernel_p50_ms": 1e3 * statistics.median(res["kernel_times"]),
    }
    res["problems"] = []
    return res


def traced_run(runner, workload):
    """One untraced, one traced and one counting pass, each in its own child."""
    plain = runner.child("time", 0)[2]
    traced = runner.child("trace")[2]
    counted = runner.child("count")[2]
    layer = dict(traced["layers"], **counted["layers"])
    traced_s = sum(traced["passes"][0])
    layer["trace.overhead"] = traced_s / sum(plain["passes"][0]) - 1
    layer["trace.root_coverage"] = sum(layer["cli.%s.total_s" % c] for c in COMMANDS) / traced_s
    layer["trace.ops_failed"] = len(traced["failures"])
    layer["count.ops_failed"] = len(counted["failures"])
    problems = [
        "%s made no calls on %s" % (name, workload)
        for name in workloads.REQUIRED_CALLS[workload]
        if not layer[name + ".calls"]
    ]
    if layer["trace.root_coverage"] < 0.95:
        problems.append("cli root spans cover only %.3f of the traced job time"
                        % layer["trace.root_coverage"])
    runs = (plain, traced, counted)
    return {
        "metrics": {name: layer[name] for name, _ in PER_LAYER},
        "attempted": sum(r["attempted"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "backend": plain["backend"],
        "problems": problems,
        "edges": traced["edges"],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, jobs=None):
    """Run the benchmark.  `jobs` replaces the workload's job list (used by
    the self-test); the workload's scenario files are still generated."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "emapalg", "cli.py")):
        print("perfbench: no emapalg sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    work = os.path.join(BENCH_DIR, "_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        scenarios, default_jobs = workloads.build(args.workload, args.seed, work)
        runner = Runner(work, scenarios, jobs if jobs is not None else default_jobs)
        if args.trace:
            out = traced_run(runner, args.workload)
        else:
            out = timed_run(runner, args.seconds)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(END_TO_END + PER_LAYER)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": out["backend"],
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "counting": bool(args.trace),
    }
    failures = out["failures"]
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in out["metrics"].items():
        print("%-44s %14.6g %s" % (name, value, units[name]))
    for name, value in out.get("wall", {}).items():
        print("wall %-39s %14.6g" % (name, value))
    print("%-44s %14d count" % ("ops", out["attempted"]))
    print("%-44s %14d count" % ("ops_failed", len(failures)))
    for parent, name, calls in out.get("edges", []):
        print("calls %s > %s: %d" % (parent or "-", name, calls))
    for line in failures + out["problems"]:
        print("FAIL " + line)
    correct = not failures and not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
