#!/usr/bin/env python3
"""Self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a one-job run (``validate sl2_z2``) is reported correct, that a
deliberately wrong expected answer is counted as failed and makes the run
exit nonzero, that the benchmark refuses to run without the sources, that the
independent answer checks reproduce known values, and that BENCHMARK.json
names the metrics the harness reports.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

ARGV = ["--workload", "golden", "--seed", "0", "--seconds", "1", "--trace", "0"]


def validate_job(golden):
    return [{
        "name": "validate sl2_z2",
        "argv": ["validate", os.path.join(workloads.FIXTURES, "sl2_z2.json")],
        "check": {"kind": "golden", "path": workloads.golden_path(golden, "validate")},
    }]


def run_once(jobs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(ARGV, jobs=jobs)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_one_job():
    code, res = run_once(validate_job("sl2_z2.json"))
    assert code == 0 and res["correct"], res
    assert res["attempted"] >= 1 and res["failed"] == 0, res
    assert set(res["metrics"]) == {name for name, _ in END_TO_END}, res


def test_wrong_answer_fails():
    code, res = run_once(validate_job("sl3_flip.json"))
    assert code != 0 and not res["correct"], res
    assert res["failed"] == res["attempted"] >= 1, res


def test_refuses_without_sources():
    bare = os.path.join(BENCH_DIR, "_work", "bare-%d" % os.getpid())
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py"] + ARGV, cwd=bare,
            capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def test_answer_checks():
    assert checks.chari_loktev_dim(1, [4]) == 16
    assert checks.chari_loktev_dim(3, [1, 0, 0]) == 4
    assert checks.chari_loktev_dim(2, [1, 1]) == 9
    table = checks.sl2_clebsch_gordan([[{"p1": 2}, {"p1": 2}]])
    assert table == {
        frozenset({("p1", (4,))}): 1, frozenset({("p1", (2,))}): 1, frozenset(): 1,
    }
    assert checks.parse_psi("{m1: (0,1); p1: (1,0)}") == frozenset(
        {("m1", (0, 1)), ("p1", (1, 0))})


def test_rescale():
    ref = speed.REF_KERNEL_S
    assert speed.rescale(2.0, [ref, ref]) == 2.0
    # a host twice as slow as the reference halves the job's time
    assert speed.rescale(2.0, [2 * ref, 2 * ref]) == 1.0
    assert abs(speed.rescale(3.0, [ref, ref / 2]) - 4.5) < 1e-12


def test_benchmark_json_names():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main():
    tests = [test_answer_checks, test_rescale, test_benchmark_json_names, test_refuses_without_sources,
             test_one_job, test_wrong_answer_fails]
    for test in tests:
        test()
        print("ok", test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
