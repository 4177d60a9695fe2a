"""Workload definitions: the scenario files each workload needs and the jobs
it runs, both derived from the seed.

A job is ``{"name", "argv", "check"}``: ``argv`` is handed to
``emapalg.cli.main`` (the child adds ``--format machine --output <file>``) and
``check`` names one of the answer checks in ``checks.py``.

The seed draws the nonzero rational coordinates of the generated points: the
orbit {a, -a} of the Z/2 action x -> -x, plus a second point b != +-a where a
workload needs one.  No expected answer depends on the seed.
"""

import json
import os
import random
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURES = os.path.join(ROOT, "fixtures")
EXPECTED = os.path.join(BENCH_DIR, "expected")

# The pairs of scripts/make_goldens.py, frozen here so the workload stays
# fixed when the golden set grows.
GOLDEN_PAIRS = [
    ("sl2_z2.json", "validate", ["validate"]),
    ("sl2_z2.json", "weyl_psi2w_plain", ["weyl", "psi2w_plain"]),
    ("sl2_z2.json", "twist_psi2w", ["twist", "psi2w"]),
    ("sl2_z2.json", "irreps_b1", ["irreps", "--bound", "1"]),
    ("sl2_z2.json", "mult_sum", ["mult", "V(psi2w_plain)+V(psi_two_pt)"]),
    ("sl2_z2.json", "ext_psiw", ["ext", "psiw", "--rungs", "2", "--bound", "1"]),
    ("sl2_z2.json", "battery_psi2w", ["battery", "psi2w", "--bound", "2"]),
    ("sl2_z2_one_orbit.json", "irreps_b1", ["irreps", "--bound", "1"]),
    ("sl3_flip.json", "validate", ["validate"]),
    ("sl3_flip.json", "weyl_psi_w1_plain", ["weyl", "psi_w1_plain"]),
    ("sl3_flip.json", "twist_psi_w1", ["twist", "psi_w1"]),
    ("sl3_flip.json", "irreps_b1", ["irreps", "--bound", "1"]),
]

MULT_EXPR = "V(psi_two_pt)*V(psi_two_pt)+V(psi2w_plain)*V(psi2w_plain)*V(psi2w_plain)"

# Functions whose time each workload is meant to measure; the traced run
# fails if one of them makes no call, so that a rename or an inlining shows
# instead of reading as 0 s.
REQUIRED_CALLS = {
    "weyl-local": [
        "weyl.weyl_module", "weyl.build", "linalg.saturate", "linalg.rref",
        "repmod.quotient_module",
    ],
    "battery-sl3": [
        "homology.CEComplex.build", "homology.CEComplex.h1", "homology.ext1_ladder",
        "ema.InvariantAlgebra.init", "repmod.hom_space", "linalg.rref",
    ],
    "mult-tensor": [
        "linalg.joint_eigenspaces", "repmod.tensor_product", "repmod.multiplicities",
    ],
    "golden": [
        "scenario.load_scenario", "liealg.irreducible_module", "homology.CEComplex.build",
        "homology.ext1_ladder", "ema.InvariantAlgebra.init", "repmod.hom_space",
    ],
}

WORKLOADS = tuple(REQUIRED_CALLS)


def _draw_coordinate(rng):
    value = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return value if rng.random() < 0.5 else -value


def _literal(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def draw_points(seed, with_b):
    """{"p1": a, "m1": -a} and, when asked, "p2": b with b != +-a."""
    rng = random.Random(seed)
    a = _draw_coordinate(rng)
    points = {"p1": [_literal(a)], "m1": [_literal(-a)]}
    if with_b:
        b = _draw_coordinate(rng)
        while abs(b) == abs(a):
            b = _draw_coordinate(rng)
        points["p2"] = [_literal(b)]
    return points


def _z2_scenario(name, lie_type, automorphism, points, psi):
    return {
        "name": name,
        "lie_type": lie_type,
        "num_variables": 1,
        "generators": [{"order": 2, "scaling": ["-1"], "automorphism": automorphism}],
        "points": points,
        "psi": psi,
    }


_SL2_Z2 = {"tau": "identity", "a": [1], "zeta": "-1"}
_FLIP = {"tau": "flip", "zeta": "1"}


def _write(work, data):
    path = os.path.join(work, data["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path


def build(workload, seed, work):
    """Write the workload's scenario files into `work`; return
    (scenario_paths, jobs)."""
    if workload == "weyl-local":
        pts = draw_points(seed, with_b=False)
        a1 = _write(work, _z2_scenario(
            "a1_local", "A1", _SL2_Z2, pts,
            {"psi4w": {"equivariant": False, "values": {"p1": [4]}}}))
        a3 = _write(work, _z2_scenario(
            "a3_local", "A3", dict(_FLIP, a=[0, 0, 0]), pts,
            {"psi_w1": {"equivariant": False, "values": {"p1": [1, 0, 0]}}}))
        jobs = [
            {"name": "weyl A1 4w", "argv": ["weyl", a1, "psi4w"],
             "check": {"kind": "weyl_dim", "rank": 1, "lam": [4]}},
            {"name": "weyl A3 w1", "argv": ["weyl", a3, "psi_w1"],
             "check": {"kind": "weyl_dim", "rank": 3, "lam": [1, 0, 0]}},
        ]
        return [a1, a3], jobs
    if workload == "battery-sl3":
        scn = _write(work, _z2_scenario(
            "sl3_flip", "A2", dict(_FLIP, a=[0, 0]), draw_points(seed, with_b=False),
            {"psi_w1": {"equivariant": True, "values": {"p1": [1, 0]}}}))
        jobs = [
            {"name": "battery sl3_flip psi_w1", "argv": ["battery", scn, "psi_w1"],
             "check": {"kind": "battery",
                       "expected": os.path.join(EXPECTED, "battery_sl3_flip_psi_w1.json")}},
        ]
        return [scn], jobs
    if workload == "mult-tensor":
        # emapalg orders the support points by (numerator, denominator) of
        # their coordinate, and the job takes about 25 % longer when p2
        # comes first; each pass runs both orders, so that every run does
        # the same work whatever the seed draws
        drawn = draw_points(seed, with_b=True)
        first, second = sorted((Fraction(drawn["p1"][0]), Fraction(drawn["p2"][0])),
                               key=lambda q: (q.numerator, q.denominator))
        summands = [
            [{"p1": 2, "p2": 1}, {"p1": 2, "p2": 1}],
            [{"p1": 2}, {"p1": 2}, {"p1": 2}],
        ]
        scenarios, jobs = [], []
        for order, p1, p2 in (("p1_first", first, second), ("p2_first", second, first)):
            points = {"p1": [_literal(p1)], "m1": [_literal(-p1)], "p2": [_literal(p2)]}
            scn = _write(work, _z2_scenario(
                "sl2_z2_" + order, "A1", _SL2_Z2, points,
                {"psi_two_pt": {"equivariant": False, "values": {"p1": [2], "p2": [1]}},
                 "psi2w_plain": {"equivariant": False, "values": {"p1": [2]}}}))
            scenarios.append(scn)
            jobs.append({"name": "mult sl2_z2 tensor " + order, "argv": ["mult", scn, MULT_EXPR],
                         "check": {"kind": "sl2_clebsch_gordan", "summands": summands}})
        return scenarios, jobs
    if workload == "golden":
        scenarios = sorted({os.path.join(FIXTURES, s) for s, _, _ in GOLDEN_PAIRS})
        jobs = [
            {"name": "%s %s" % (s, slug),
             "argv": [argv[0], os.path.join(FIXTURES, s)] + argv[1:],
             "check": {"kind": "golden", "path": golden_path(s, slug)}}
            for s, slug, argv in GOLDEN_PAIRS
        ]
        return scenarios, jobs
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def golden_path(scenario, slug):
    stem = scenario.rsplit(".", 1)[0]
    return os.path.join(FIXTURES, "golden", "%s__%s.json" % (stem, slug))
