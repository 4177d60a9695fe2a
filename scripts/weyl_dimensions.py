#!/usr/bin/env python3
"""Build certified local Weyl modules for a few single- and two-point psi
over sl2 and sl3 and print a dimension table with certificate summaries.
Exits 1 unless every dimension equals the Chari-Loktev formula
prod_i C(r + 1, i) ** lam_i, multiplied over the points."""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from checks import chari_loktev_dim  # noqa: E402

from emapalg.coordalg import Point  # noqa: E402
from emapalg.fields import QQ  # noqa: E402
from emapalg.liealg import build_sl  # noqa: E402
from emapalg.repmod import PsiFunction, multiplicities  # noqa: E402
from emapalg.rootdata import Weight  # noqa: E402
from emapalg.weyl import weyl_module  # noqa: E402


def pt(c):
    return Point((QQ.scalar(c),))


CASES = [
    (2, {pt(1): Weight((1,))}),
    (2, {pt(1): Weight((2,))}),
    (2, {pt(1): Weight((3,))}),
    (2, {pt(1): Weight((2,)), pt(2): Weight((1,))}),
    (3, {pt(1): Weight((1, 0))}),
    (3, {pt(1): Weight((0, 1))}),
    (3, {pt(1): Weight((1, 1))}),
]

if __name__ == "__main__":
    wrong = 0
    for n, mapping in CASES:
        g = build_sl(n)
        psi = PsiFunction.of(mapping)
        t0 = time.time()
        w = weyl_module(g, psi)
        dt = time.time() - t0
        mults = multiplicities(w.module)
        print(
            "sl%d  psi=%s  dim=%d  (%.2fs)  cert=%s"
            % (
                n,
                {str(p): wt.coords for p, wt in psi.assignments},
                w.dim,
                dt,
                {k: w.certificate[k] for k in sorted(w.certificate)},
            )
        )
        for k, v in sorted(mults.items(), key=lambda kv: str(kv[0])):
            print("    mult %s = %d" % ({str(p): wt.coords for p, wt in k.assignments} or 0, v))
        expected = 1
        for wt in mapping.values():
            expected *= chari_loktev_dim(n - 1, wt.coords)
        if w.dim != expected:
            print("    WRONG: Chari-Loktev gives dim %d" % expected)
            wrong += 1
    if wrong:
        sys.exit(1)
