"""Answer checks that do not use emapalg.

Each check takes the job's check spec, the bytes of the machine report the
CLI wrote, and returns None when the answer is right or a one-line reason
when it is wrong.
"""

import json
import re
from collections import Counter
from itertools import product
from math import comb, prod

_ASSIGNMENT = re.compile(r"(\w+): \(([-\d,]+)\)")


def parse_psi(text):
    """'{m1: (2); p1: (2)}' -> frozenset of (point name, weight tuple).

    The CLI orders points by their coordinates, which the seed draws, so
    answers are compared as sets."""
    if text == "0":
        return frozenset()
    body = text[1:-1]
    pairs = [_ASSIGNMENT.fullmatch(part) for part in body.split("; ")]
    if not text.startswith("{") or not text.endswith("}") or None in pairs:
        raise ValueError("cannot parse psi %r" % text)
    return frozenset(
        (m.group(1), tuple(int(c) for c in m.group(2).split(","))) for m in pairs
    )


def chari_loktev_dim(rank, lam):
    """dim of the local Weyl module W(lam) at one point in type A_rank:
    prod_i C(rank + 1, i) ** lam_i (Chari-Loktev 2006)."""
    return prod(comb(rank + 1, i + 1) ** k for i, k in enumerate(lam))


def _sl2_tensor(weights):
    """Highest weights (with multiplicity) of V(w1) x ... x V(wk) for sl2."""
    acc = Counter({0: 1})
    for w in weights:
        nxt = Counter()
        for m, mult in acc.items():
            for k in range(abs(m - w), m + w + 1, 2):
                nxt[k] += mult
        acc = nxt
    return acc


def sl2_clebsch_gordan(summands):
    """Multiplicity table of a sum of tensor products of sl2 evaluation
    modules.  Each factor maps point names to highest weights; factors at
    distinct points do not interact, so each summand decomposes point by
    point and the pieces multiply."""
    table = Counter()
    for factors in summands:
        points = sorted({p for f in factors for p in f})
        per_point = [
            sorted(_sl2_tensor([f[p] for f in factors if p in f]).items()) for p in points
        ]
        for combo in product(*per_point):
            key = frozenset((p, (w,)) for p, (w, _) in zip(points, combo) if w)
            table[key] += prod(m for _, m in combo)
    return dict(table)


def _results(raw):
    report = json.loads(raw)
    if report.get("status") != "ok":
        return None, "status %r" % report.get("status")
    return report["results"], None


def check_weyl_dim(spec, raw):
    res, err = _results(raw)
    if err:
        return err
    want = chari_loktev_dim(spec["rank"], spec["lam"])
    if res["dim"] != want:
        return "dim %d, Chari-Loktev gives %d" % (res["dim"], want)
    cert = res["certificate"]
    for tag in ("buffer+1", "N+1", "reversed"):
        if cert.get(tag) != want:
            return "certificate %s is %r, want %d" % (tag, cert.get(tag), want)
    return None


def check_sl2_clebsch_gordan(spec, raw):
    res, err = _results(raw)
    if err:
        return err
    got = {parse_psi(k): v for k, v in res["multiplicities"]}
    want = sl2_clebsch_gordan(spec["summands"])
    if got != want:
        return "multiplicity table %r differs from Clebsch-Gordan %r" % (got, want)
    dim = sum(prod(w + 1 for _, (w,) in key) * m for key, m in want.items())
    if res["dim"] != dim:
        return "dim %d, Clebsch-Gordan gives %d" % (res["dim"], dim)
    return None


def _battery_view(res):
    return {
        "verdict": res["verdict"],
        "dim": res["dim"],
        "psi": parse_psi(res["psi"]),
        "witness": res["witness"],
        "candidates": sorted(
            (sorted(parse_psi(phi)), hd, dims) for phi, hd, dims in res["candidates"]
        ),
    }


def check_battery(spec, raw):
    res, err = _results(raw)
    if err:
        return err
    if res["verdict"] != "PASS":
        return "verdict %r" % res["verdict"]
    with open(spec["expected"]) as fh:
        want = _battery_view(json.load(fh))
    if _battery_view(res) != want:
        return "battery table differs from %s" % spec["expected"]
    return None


def check_golden(spec, raw):
    with open(spec["path"], "rb") as fh:
        if fh.read() != raw:
            return "report differs from %s" % spec["path"]
    return None


CHECKS = {
    "weyl_dim": check_weyl_dim,
    "sl2_clebsch_gordan": check_sl2_clebsch_gordan,
    "battery": check_battery,
    "golden": check_golden,
}


def check(spec, raw):
    return CHECKS[spec["kind"]](spec, raw)
