#!/usr/bin/env python3
"""Run the homological characterization battery on a twisted Weyl module and
on two deliberately wrong candidates (its head alone, and a padded direct
sum), printing verdicts and witnesses.  Exits 1 unless the verdicts are
PASS, FAIL, FAIL."""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from emapalg.homology import characterization_battery  # noqa: E402
from emapalg.repmod import direct_sum, evaluation_module  # noqa: E402
from emapalg.scenario import load_scenario  # noqa: E402
from emapalg.weyl import twisted_weyl  # noqa: E402


def show(tag, module, psi):
    t0 = time.time()
    rep = characterization_battery(module, psi, weight_bound=2, rungs=3)
    print(
        "%-12s verdict=%s  witness=%s  (%.1fs)"
        % (
            tag,
            rep.verdict,
            None
            if rep.witness is None
            else (str(rep.witness[0]), rep.witness[1], rep.witness[2]),
            time.time() - t0,
        )
    )
    return rep.verdict


if __name__ == "__main__":
    scn = load_scenario(os.path.join(ROOT, "fixtures", "sl2_z2.json"))
    psi = scn.psis["psi2w"]
    p1 = scn.points["p1"]
    tw, w, inv = twisted_weyl(scn.group, psi, [p1])
    verdicts = [show("W_Gamma", tw, psi)]

    head = evaluation_module(psi, tw.algebra)  # V_Gamma(psi) = head of W_Gamma
    verdicts.append(show("head alone", head, psi))

    psiw = scn.psis["psiw"]
    padded = direct_sum(tw, evaluation_module(psiw, tw.algebra))
    verdicts.append(show("padded sum", padded, psi))
    if verdicts != ["PASS", "FAIL", "FAIL"]:
        print("expected verdicts PASS, FAIL, FAIL; got %s" % ", ".join(verdicts))
        sys.exit(1)
