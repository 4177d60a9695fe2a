#!/usr/bin/env python3
"""Stress tier: time the larger-psi CLI probes on fixtures/sl3_stress.json,
fixtures/sl2_stress.json, fixtures/sl3_irreducible.json,
fixtures/sl2_plane.json and fixtures/sl4_stress.json.

    python3 scripts/stress.py --out BENCH.json [--src DIR]

Each probe runs ``emapalg.cli.main`` once, in a fresh child process, and
records its wall time (the ``main`` call only, not interpreter start-up),
its time at reference host speed, the child's peak RSS, the Python
version, the core count and the scalar backend (gmpy2 or fractions).  Every answer is checked against a closed
form: the Weyl and twist dimensions against the Chari-Loktev formula
dim W(lam) = prod_i C(r + 1, i) ** lam_i, multiplicative over distinct
points (at a point of the plane, sl2 W(m omega) against the Catalan number
C_{m+1} instead, after Feigin-Loktev), the battery against PASS over at
least one candidate, each with Hom 0 and every ladder rung 0, and a mult
table against its hand-computed decomposition and its dimension.  A cap probe's only right
answer is a ``cap-exceeded`` report with exit code 1, reached under a 1 GB
address-space limit on its child.

The reference-speed time ``ref_s`` is the one ``perfbench`` reports as
``run_s``: a calibration kernel (``perfbench/speed.py``) is timed every
50 ms during the call and just before and after it, ``wall_s`` is the call's
wall time less the kernel's, and ``ref_s`` is ``wall_s`` times the mean host
speed over the call.  The shared host's speed drifts by up to 2x, so
``ref_s`` is the figure to compare between runs.

--src imports emapalg from another checkout's ``src`` directory, so the
same harness measures two versions on the same machine.  The result goes
to --out as JSON and to standard output; the exit code is nonzero when a
probe fails or gives a wrong answer.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from functools import partial
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import speed  # noqa: E402
from checks import chari_loktev_dim  # noqa: E402

# name -> (scenario file, CLI arguments after the scenario path)
PROBES = {
    "weyl psi_2w1": ("sl3_stress.json", ["weyl", "psi_2w1"]),
    "weyl psi_w1w2": ("sl3_stress.json", ["weyl", "psi_w1w2"]),
    "weyl psi_two_point": ("sl3_stress.json", ["weyl", "psi_two_point"]),
    "twist psi_w1w2_eq": ("sl3_stress.json", ["twist", "psi_w1w2_eq"]),
    "battery psi_w1w2_eq": ("sl3_stress.json", ["battery", "psi_w1w2_eq", "--bound", "1"]),
    "battery psi_2w1w2_eq": ("sl3_stress.json", ["battery", "psi_2w1w2_eq", "--bound", "2"]),
    "battery psi_w1_w2_eq": ("sl3_stress.json", ["battery", "psi_w1_w2_eq", "--bound", "1"]),
    "weyl psi_3w_3w": ("sl2_stress.json", ["weyl", "psi_3w_3w"]),
    "battery psi_4w_eq": ("sl2_stress.json", ["battery", "psi_4w_eq", "--bound", "3"]),
    "mult psi_w1w2^3": ("sl3_stress.json", ["mult", "V(psi_w1w2)*V(psi_w1w2)*V(psi_w1w2)"]),
    "mult V(psi_6w1_6w2)": ("sl3_irreducible.json", ["mult", "V(psi_6w1_6w2)"]),
    "weyl psi_6w1_6w2": ("sl3_irreducible.json", ["weyl", "psi_6w1_6w2"]),
    "weyl psi_4w": ("sl2_plane.json", ["weyl", "psi_4w"]),
    "weyl psi_w1w3": ("sl4_stress.json", ["weyl", "psi_w1w3"]),
}
# W((6, 6)) of sl3 has dim 3^12, far over EMA_WEYL_MAX_DIM: its bound must be
# compared with the cap without listing the module
CAP_PROBES = {"weyl psi_6w1_6w2"}
CAP_PROBE_AS_BYTES = 1 << 30
# mult expression -> its table, by hand: the sl3 tensor cube 8 (x) 8 (x) 8 at p1
MULT_TABLES = {
    "V(psi_w1w2)*V(psi_w1w2)*V(psi_w1w2)": {
        "0": 2, "{p1: (0,3)}": 4, "{p1: (1,1)}": 8, "{p1: (1,4)}": 2,
        "{p1: (2,2)}": 6, "{p1: (3,0)}": 4, "{p1: (3,3)}": 1, "{p1: (4,1)}": 2,
    },
    "V(psi_6w1_6w2)": {"{p1: (6,6)}": 1},
}
# mult expression -> its dimension: 8 ** 3, and the Weyl dimension
# (a + 1)(b + 1)(a + b + 2) / 2 of the sl3 irreducible V(a, b) at (6, 6)
MULT_DIMS = {
    "V(psi_w1w2)*V(psi_w1w2)*V(psi_w1w2)": 512,
    "V(psi_6w1_6w2)": 343,
}
# probe -> its Weyl dimension at a point of the plane, where the one-variable
# Chari-Loktev formula does not apply: the Catalan number
# C_5 = binom(10, 5) / 6 of sl2 W(4 omega) (Feigin-Loktev, Comm. Math. Phys.
# 251, 2004)
PLANE_DIMS = {"weyl psi_4w": comb(10, 5) // 6}
TIMEOUT_S = 900


def expected_dim(scenario, psi_name):
    """Chari-Loktev dimension of the local Weyl module of a scenario psi:
    the product over its points of the one-point type-A formula."""
    rank = int(scenario["lie_type"][1:])
    dim = 1
    for weight in scenario["psi"][psi_name]["values"].values():
        dim *= chari_loktev_dim(rank, weight)
    return dim


def check(name, scenario, args, report, code):
    """None when the CLI report and exit code are right, else a one-line
    reason."""
    if name in CAP_PROBES:
        if code == 1 and report["status"] == "cap-exceeded":
            return None
        return "exit %s, status %s, expected cap-exceeded" % (code, report["status"])
    results = report["results"]
    if report["status"] != "ok":
        return "status %s" % report["status"]
    if args[0] == "battery":
        # a PASS over no candidate, or over a nonzero Hom or rung, is wrong
        if results["verdict"] != "PASS":
            return "verdict %s" % results["verdict"]
        if not results["candidates"]:
            return "PASS over no candidate"
        for phi, hom, rungs in results["candidates"]:
            if hom != 0 or any(rungs):
                return "PASS with Hom %d, Ext %s at %s" % (hom, rungs, phi)
        return None
    if args[0] == "mult":
        table = {key: m for key, m in results["multiplicities"]}
        want = MULT_TABLES[args[1]]
        if table != want:
            return "table %s, expected %s" % (table, want)
        want = MULT_DIMS[args[1]]
        return None if results["dim"] == want else "dim %s, expected %d" % (results["dim"], want)
    want = PLANE_DIMS[name] if name in PLANE_DIMS else expected_dim(scenario, args[1])
    return None if results["dim"] == want else "dim %s, expected %d" % (results["dim"], want)


def child(src, argv):
    """Run one CLI call in this process and print its measurements as JSON."""
    sys.path.insert(0, src)
    from emapalg import cli, fields

    out = io.StringIO()
    sampler = speed.Sampler()
    sampler.start()
    try:
        with contextlib.redirect_stdout(out):
            code, wall, ref = sampler.timed(lambda: cli.main(argv))
    finally:
        sampler.stop()
    print(json.dumps({
        "report": json.loads(out.getvalue()),
        "exit": code,
        "wall_s": round(wall, 3),
        "ref_s": round(ref, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "backend": fields._Q.__module__.split(".")[0],
    }))


def _limit_address_space(nbytes):
    resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))


def run_probe(src, name):
    fixture, args = PROBES[name]
    path = os.path.join(FIXTURES, fixture)
    with open(path) as fh:
        scenario = json.load(fh)
    argv = [args[0], path] + args[1:] + ["--format", "machine"]
    entry = {
        "probe": name,
        "argv": argv[:1] + [os.path.relpath(path, ROOT)] + argv[2:],
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", json.dumps(argv), "--src", src],
            capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
            preexec_fn=partial(_limit_address_space, CAP_PROBE_AS_BYTES)
            if name in CAP_PROBES else None,
        )
    except subprocess.TimeoutExpired:
        return dict(entry, correct=False, error="timed out after %d s" % TIMEOUT_S)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return dict(entry, correct=False, error="child exit %d: %s" % (proc.returncode, tail))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    reason = check(name, scenario, args, res["report"], res["exit"])
    entry.update(
        wall_s=res["wall_s"],
        ref_s=res["ref_s"],
        peak_rss_mb=res["peak_rss_mb"],
        backend=res["backend"],
        answer=res["report"]["results"].get(
            "verdict", res["report"]["results"].get("dim", res["report"]["status"])),
        correct=reason is None,
    )
    if reason is not None:
        entry["error"] = reason
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the result JSON here")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory to import emapalg from")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child is not None:
        child(src, json.loads(args.child))
        return 0
    probes = [run_probe(src, name) for name in PROBES]
    result = {
        "fixtures": sorted({"fixtures/" + fixture for fixture, _ in PROBES.values()}),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "probes": probes,
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if all(p["correct"] for p in probes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
