#!/usr/bin/env python3
"""Regenerate the golden machine-format reports under fixtures/golden/.

Each (scenario, command) pair is run once and its machine report written to
fixtures/golden/<scenario-stem>__<slug>.json.  The regression suite replays
every pair and asserts byte equality.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from emapalg.cli import main  # noqa: E402

PAIRS = [
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
    ("sl2_z2.json", "mult_twisted", ["mult", "W(psi2w)*V(psiw)"]),
    ("sl3_flip.json", "mult_twisted", ["mult", "V(psi_w1)+W(psi_w1)*W(psi_w1)"]),
    ("sl2_z2_two_orbits.json", "twist_psi_two_orbits", ["twist", "psi_two_orbits"]),
    ("sl2_z2_two_orbits.json", "ext_psi_two_orbits", ["ext", "psi_two_orbits", "--rungs", "2", "--bound", "1"]),
    ("sl2_z2_two_orbits.json", "battery_psi_two_orbits", ["battery", "psi_two_orbits", "--bound", "1"]),
    ("sl2_z2.json", "mult_weyl_two_points", ["mult", "W(psi2w_plain)*V(psi_two_pt)"]),
    ("sl2_z2.json", "mult_repeated_atoms",
     ["mult", "V(psi2w_plain)*V(psi2w_plain)+W(psi2w_plain)*V(psi_two_pt)+W(psi2w_plain)"]),
    ("sl2_plane.json", "battery_psi_2w_eq", ["battery", "psi_2w_eq"]),
]


def golden_path(scenario, slug):
    stem = scenario.rsplit(".", 1)[0]
    return os.path.join(ROOT, "fixtures", "golden", "%s__%s.json" % (stem, slug))


def run_pair(scenario, slug, argv, out_path):
    scn_path = os.path.join(ROOT, "fixtures", scenario)
    code = main([argv[0], scn_path, "--format", "machine", "--output", out_path] + argv[1:])
    if code != 0:
        raise SystemExit("command %r on %s exited %d" % (argv, scenario, code))


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, "fixtures", "golden"), exist_ok=True)
    for scenario, slug, argv in PAIRS:
        out = golden_path(scenario, slug)
        run_pair(scenario, slug, argv, out)
        print("wrote", os.path.relpath(out, ROOT))
