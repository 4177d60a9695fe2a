"""Command-line interface: scenario validation, Weyl/twist/irreps/mult/ext/
battery reports with deterministic human and machine output.

Exit codes: 0 success, 1 mathematical-check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import os
import sys

from .coordalg import EtaFunction
from .ema import TruncatedAlgebra
from .homology import characterization_battery, enumerate_phi, lower_candidates
from .repmod import (
    direct_sum, equivariant_table, evaluation_module, extend_to, multiplicities, psi_dim,
    psi_restrict, tensor_product, untwist,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    read_scenario,
    validation_passed,
)
from .weyl import CertificationError, twisted_weyl, weyl_dim_bound, weyl_module

DEFAULT_MAX_DIM = 4096


class CapExceeded(Exception):
    def __init__(self, size, cap, what):
        super().__init__("%s %d exceeds EMA_WEYL_MAX_DIM=%d" % (what, size, cap))
        self.size = size


class MathCheckFailure(Exception):
    pass


def _max_dim():
    raw = os.environ.get("EMA_WEYL_MAX_DIM", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_DIM
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ScenarioError("EMA_WEYL_MAX_DIM must be a positive integer: %r" % raw)
    return cap


def _check_cap(size, what="module dimension"):
    cap = _max_dim()
    if size > cap:
        raise CapExceeded(size, cap, what)


def _check_weyl_cap(g, psi):
    _check_cap(weyl_dim_bound(g, psi), "Weyl dimension bound")


def fmt_psi(scn: Scenario, psi) -> str:
    if psi.is_zero():
        return "0"
    parts = [
        "%s: (%s)" % (scn.point_name(p), ",".join(str(c) for c in w.coords))
        for p, w in psi.assignments
    ]
    return "{" + "; ".join(parts) + "}"


def _resolve_psi(scn: Scenario, name):
    if name not in scn.psis:
        raise ScenarioError("unknown psi name %r" % name)
    if scn.psis[name].is_zero():
        raise ScenarioError("psi %r is zero at every point; commands need a nonzero psi" % name)
    return scn.psis[name]


def _mult_table(scn: Scenario, table):
    items = sorted(
        ((fmt_psi(scn, k), v) for k, v in table.items()), key=lambda kv: kv[0]
    )
    return [[k, v] for k, v in items]


def _orbit_reps(scn: Scenario):
    return [orb[0] for orb in scn.group.orbits(scn.points[n] for n in sorted(scn.points))]


def _check_ranges(args):
    """Fewer than one rung or a negative bound would report an empty table
    (or a PASS over no candidates), so they are input errors."""
    if getattr(args, "rungs", 1) < 1:
        raise ScenarioError("--rungs must be at least 1, got %d" % args.rungs)
    bound = getattr(args, "bound", None)
    if bound is not None and bound < 0:
        raise ScenarioError("--bound must be at least 0, got %d" % bound)


def cmd_validate(scn: Scenario, args):
    results = dict(scn.validation)
    results["passed"] = validation_passed(scn)
    if not results["passed"]:
        raise MathCheckFailure(results)
    return results


def cmd_weyl(scn: Scenario, args):
    psi = _plain(scn, args.psi)
    _check_weyl_cap(scn.algebra, psi)
    w = weyl_module(scn.algebra, psi)
    return {
        "psi": fmt_psi(scn, psi),
        "dim": w.dim,
        "certificate": {k: v for k, v in sorted(w.certificate.items())},
        "multiplicities": _mult_table(scn, multiplicities(w.module)),
    }


def cmd_twist(scn: Scenario, args):
    psi = _resolve_psi(scn, args.psi)
    if not psi.equivariant:
        raise ScenarioError("twist needs an equivariant psi (%r is not)" % args.psi)
    if args.transversal:
        try:
            points = [scn.points[n] for n in args.transversal.split(",")]
        except KeyError as exc:
            raise ScenarioError("unknown point name %s" % exc)
    else:
        points = [p for p in _orbit_reps(scn) if p in psi.support()]
    try:
        rest = psi_restrict(psi, scn.group, points)
    except ValueError as exc:
        raise ScenarioError("bad --transversal: %s" % exc)
    _check_weyl_cap(scn.algebra, rest)
    tw, w, _ = twisted_weyl(scn.group, psi, points)
    back = untwist(tw)
    if back.actions != w.module.actions:
        raise MathCheckFailure("untwist of the twisted Weyl module is not the identity")
    return {
        "psi": fmt_psi(scn, psi),
        "transversal": [scn.point_name(p) for p in points],
        "dim": tw.dim,
        "untwisted_dim": w.dim,
        "untwist_roundtrip": "identity",
        "multiplicities": _mult_table(scn, equivariant_table(scn.group, multiplicities(back))),
    }


def cmd_irreps(scn: Scenario, args):
    reps = _orbit_reps(scn)
    rd = scn.algebra.rd
    # one tensor factor per support orbit
    out = sorted(
        [fmt_psi(scn, phi), psi_dim(rd, psi_restrict(phi, scn.group, reps))]
        for phi in enumerate_phi(scn.group, reps, rd.rank, args.bound)
    )
    return {"bound": args.bound, "count": len(out), "classes": out}


def _parse_module_expr(scn: Scenario, expr):
    """Tiny grammar: atoms V(name) | W(name), combined with + (direct sum)
    and * (tensor product); * binds tighter than +."""
    import re

    tokens = re.findall(r"[VW]\(\s*\w+\s*\)|[+*]", expr.replace(" ", ""))
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise ScenarioError("cannot parse module expression %r" % expr)
    atoms = []
    ops = []
    expect_atom = True
    for t in tokens:
        if t in "+*":
            if expect_atom:
                raise ScenarioError("misplaced operator in %r" % expr)
            ops.append(t)
            expect_atom = True
        else:
            if not expect_atom:
                raise ScenarioError("missing operator in %r" % expr)
            atoms.append((t[0], t[2:-1].strip()))
            expect_atom = False
    if expect_atom:
        raise ScenarioError("dangling operator in %r" % expr)
    return atoms, ops


def _fold(items, ops, mul, add):
    """Combine `items` joined by `ops` left to right, * binding tighter than +."""
    acc, pending_sum = items[0], None
    for op, x in zip(ops, items[1:]):
        if op == "*":
            acc = mul(acc, x)
        else:
            pending_sum = acc if pending_sum is None else add(pending_sum, acc)
            acc = x
    return acc if pending_sum is None else add(pending_sum, acc)


def cmd_mult(scn: Scenario, args):
    """The atoms meet on the join of their own truncations: each W atom's,
    and exponent 1 at each V atom's support.  Equivariant psi are restricted
    to the orbit representatives (building over the invariant algebra would
    untwist to the same modules) and the table is keyed by psi^Gamma.  Each
    distinct atom, keyed by its kind and restricted psi, is built once."""
    atoms, ops = _parse_module_expr(scn, args.expr)
    flags = {_resolve_psi(scn, name).equivariant for _, name in atoms}
    if len(flags) > 1:
        raise ScenarioError("module expression mixes equivariant and plain psi")
    keys = [(kind, _plain(scn, name)) for kind, name in atoms]
    distinct = list(dict.fromkeys(keys))
    # each distinct atom is cap-checked before anything is built: a W atom
    # against its monomial bound, a V atom against its exact Weyl dimension
    g = scn.algebra
    for kind, psi in distinct:
        if kind == "W":
            _check_weyl_cap(g, psi)
        else:
            _check_cap(psi_dim(g.rd, psi))
    # each distinct W atom is built and certified once
    w_psis = [psi for kind, psi in distinct if kind == "W"]
    weyls = {psi: weyl_module(g, psi).module for psi in w_psis}
    eta = functools.reduce(operator.or_, (
        weyls[psi].algebra.eta if kind == "W" else EtaFunction.of(dict.fromkeys(psi.support(), 1))
        for kind, psi in distinct
    ))
    common = TruncatedAlgebra(g, eta)
    built = {
        (kind, psi): (extend_to(weyls[psi], common) if kind == "W"
                      else evaluation_module(psi, common))
        for kind, psi in distinct
    }
    mods = [built[key] for key in keys]
    _check_cap(_fold([m.dim for m in mods], ops, operator.mul, operator.add))
    acc = _fold(mods, ops, tensor_product, direct_sum)
    table = multiplicities(acc)
    if flags == {True}:
        table = equivariant_table(scn.group, table)
    return {
        "expr": args.expr,
        "dim": acc.dim,
        "multiplicities": _mult_table(scn, table),
    }


def _plain(scn: Scenario, name):
    psi = _resolve_psi(scn, name)
    if psi.equivariant:
        psi = psi_restrict(psi, scn.group, _orbit_reps(scn))
    return psi


def _battery_module(scn: Scenario, name):
    psi = _resolve_psi(scn, name)
    if not psi.equivariant:
        raise ScenarioError("command needs an equivariant psi (%r is not)" % name)
    reps = [p for p in _orbit_reps(scn) if p in psi.support()]
    _check_weyl_cap(scn.algebra, psi_restrict(psi, scn.group, reps))
    tw, _, _ = twisted_weyl(scn.group, psi, reps)
    return tw, psi


def cmd_ext(scn: Scenario, args):
    tw, psi = _battery_module(scn, args.psi)
    cands = lower_candidates(untwist(tw), scn.group, psi, args.bound, args.rungs)
    rows = [[fmt_psi(scn, phi), hd, dims] for phi, hd, dims in cands]
    rows.sort(key=lambda r: r[0])
    return {
        "psi": fmt_psi(scn, psi),
        "dim": tw.dim,
        "rungs": args.rungs,
        "bound": args.bound,
        "candidates": rows,
    }


def cmd_battery(scn: Scenario, args):
    tw, psi = _battery_module(scn, args.psi)
    report = characterization_battery(tw, psi, weight_bound=args.bound, rungs=args.rungs)
    results = {
        "psi": fmt_psi(scn, psi),
        "dim": tw.dim,
        "verdict": report.verdict,
        "candidates": sorted(
            [[fmt_psi(scn, phi), hd, dims] for phi, hd, dims in report.candidates]
        ),
        "witness": None
        if report.witness is None
        else [fmt_psi(scn, report.witness[0]), report.witness[1], report.witness[2]],
    }
    if report.verdict != "PASS":
        raise MathCheckFailure(results)
    return results


_COMMANDS = {
    "validate": cmd_validate,
    "weyl": cmd_weyl,
    "twist": cmd_twist,
    "irreps": cmd_irreps,
    "mult": cmd_mult,
    "ext": cmd_ext,
    "battery": cmd_battery,
}


def _render_human(report):
    lines = []
    lines.append("command: %s" % report["command"])
    lines.append("scenario: %s (digest %s)" % (report["scenario"], report["digest"]))
    lines.append("status: %s" % report["status"])
    for key in sorted(report["results"]):
        val = report["results"][key]
        if isinstance(val, list) and val and isinstance(val[0], list):
            lines.append("%s:" % key)
            for row in val:
                lines.append("  " + " | ".join(str(x) for x in row))
        elif isinstance(val, dict):
            lines.append("%s:" % key)
            for k in sorted(val):
                lines.append("  %s = %s" % (k, val[k]))
        else:
            lines.append("%s: %s" % (key, val))
    return "\n".join(lines) + "\n"


def _render_machine(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report, args):
    text = _render_machine(report) if args.format == "machine" else _render_human(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    ap = argparse.ArgumentParser(prog="emapalg")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario")
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=["human", "machine"], default="human")

    common(sub.add_parser("validate"))
    p = sub.add_parser("weyl")
    common(p)
    p.add_argument("psi")
    p = sub.add_parser("twist")
    common(p)
    p.add_argument("psi")
    p.add_argument("--transversal", default=None)
    p = sub.add_parser("irreps")
    common(p)
    p.add_argument("--bound", type=int, default=1)
    p = sub.add_parser("mult")
    common(p)
    p.add_argument("expr")
    p = sub.add_parser("ext")
    common(p)
    p.add_argument("psi")
    p.add_argument("--rungs", type=int, default=3)
    p.add_argument("--bound", type=int, default=1)
    p = sub.add_parser("battery")
    common(p)
    p.add_argument("psi")
    p.add_argument("--rungs", type=int, default=3)
    p.add_argument("--bound", type=int, default=None)
    return ap


@functools.cache
def _parser():
    """The parser, built on the first main call and reused by every later
    call in the process (parse_args leaves it unchanged)."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    report = {
        "command": args.command,
        "scenario": None,
        "digest": None,
        "results": {},
        "status": "ok",
    }
    try:
        # the digest names the very bytes that were parsed
        raw, data = read_scenario(args.scenario)
        scn = load_scenario(data=data)
        report["scenario"] = scn.name
        report["digest"] = hashlib.sha256(raw).hexdigest()[:16]
        _check_ranges(args)
        report["results"] = _COMMANDS[args.command](scn, args)
    except ScenarioError as exc:
        report["status"] = "input-error"
        report["results"] = {"error": str(exc)}
        _emit(report, args)
        return 2
    except CapExceeded as exc:
        report["status"] = "cap-exceeded"
        report["results"] = {"error": str(exc), "size": exc.size}
        _emit(report, args)
        return 1
    except MathCheckFailure as exc:
        payload = exc.args[0] if exc.args else {}
        report["status"] = "check-failed"
        report["results"] = payload if isinstance(payload, dict) else {"error": str(payload)}
        _emit(report, args)
        return 1
    except CertificationError as exc:
        report["status"] = "check-failed"
        report["results"] = {"error": str(exc)}
        _emit(report, args)
        return 1
    _emit(report, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
