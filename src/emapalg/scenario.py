"""Scenario files: a JSON-shaped description of a multiloop setup (Lie type,
torus, group generators, named points and psi functions), with exact-value
parsing and full validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from math import lcm

from .coordalg import GammaGroup, GroupGenerator, Point, PointAction, acts_freely
from .fields import field
from .liealg import automorphism_matrix, build_sl
from .repmod import PsiFunction, psi_gamma
from .rootdata import DiagramSymmetry, Weight


class ScenarioError(ValueError):
    """Malformed scenario input (exit code 2 territory)."""


def parse_scalar(text, fld):
    """Exact scalar literals: integers, "p/q" rationals, "zeta^k" roots of
    unity (zeta is the primitive root of the scenario field), and products
    like "-zeta^3"."""
    if _is_int(text):
        return fld.scalar(text)
    if not isinstance(text, str):
        raise ScenarioError("scalar literal must be a string or integer: %r" % (text,))
    s = text.strip()
    neg = False
    if s.startswith("-"):
        neg = True
        s = s[1:].strip()
    if s.startswith("zeta"):
        if s == "zeta":
            k = 1
        elif s.startswith("zeta^"):
            try:
                k = int(s[5:])
            except ValueError:
                raise ScenarioError("bad root of unity literal: %r" % (text,))
        else:
            raise ScenarioError("bad root of unity literal: %r" % (text,))
        val = fld.zeta**k
    else:
        try:
            if "/" in s:
                p, q = s.split("/")
                val = fld.scalar(int(p)) / fld.scalar(int(q))
            else:
                val = fld.scalar(int(s))
        except (ValueError, ZeroDivisionError):
            raise ScenarioError("bad rational literal: %r" % (text,))
    return -val if neg else val


def format_scalar(x):
    """Inverse-ish of parse_scalar, for reports."""
    if x.is_rational():
        q = x.as_rational()
        if q.denominator == 1:
            return str(int(q.numerator))
        return "%d/%d" % (q.numerator, q.denominator)
    fld = x.field
    z = fld.one
    for k in range(fld.order):
        if x == z:
            return "zeta^%d" % k
        if x == -z:
            return "-zeta^%d" % k
        z = z * fld.zeta
    return "[" + ",".join(
        "%d/%d" % (c.numerator, c.denominator) for c in x.coeffs
    ) + "]"


@dataclass
class Scenario:
    name: str
    field: object
    algebra: object
    group: GammaGroup
    points: dict  # name -> Point
    psis: dict  # name -> PsiFunction
    validation: dict = dc_field(default_factory=dict)

    def point_name(self, p: Point):
        for name, q in self.points.items():
            if q == p:
                return name
        return "(" + ", ".join(format_scalar(c) for c in p.coords) + ")"


_LIE_TYPES = {"A1": 2, "A2": 3, "A3": 4}

_TOP_KEYS = {
    "name", "lie_type", "num_variables", "cyclotomic_order", "generators", "points", "psi",
}
_GENERATOR_KEYS = {"order", "scaling", "automorphism"}
_AUTOMORPHISM_KEYS = {"tau", "a", "zeta"}
_PSI_KEYS = {"equivariant", "values"}


def _is_int(x):
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value, length):
    return isinstance(value, list) and len(value) == length and all(map(_is_int, value))


def _mapping(spec, where):
    if not isinstance(spec, dict):
        raise ScenarioError("%s must be a mapping" % where)
    return spec


def _check_keys(spec, allowed, where):
    """Reject anything but a mapping whose keys all lie in `allowed`."""
    unknown = sorted(set(_mapping(spec, where)) - allowed)
    if unknown:
        raise ScenarioError("%s has unknown keys %s" % (where, unknown))


def read_scenario(path):
    """The bytes of a scenario file, read once, and the JSON they hold."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ScenarioError("cannot read scenario: %s" % exc)


def load_scenario(path=None, data=None) -> Scenario:
    if data is None:
        _, data = read_scenario(path)
    _check_keys(data, _TOP_KEYS, "scenario")

    lie_type = data.get("lie_type")
    if lie_type not in _LIE_TYPES:
        raise ScenarioError("lie_type must be one of %s" % sorted(_LIE_TYPES))
    nvars = data.get("num_variables")
    if not _is_int(nvars) or nvars < 1:
        raise ScenarioError("num_variables must be a positive integer")

    gens_spec = data.get("generators", [])
    if not isinstance(gens_spec, list):
        raise ScenarioError("generators must be a list")
    for idx, spec in enumerate(gens_spec):
        _check_keys(spec, _GENERATOR_KEYS, "generator %d" % idx)
        _check_keys(
            spec.get("automorphism", {}), _AUTOMORPHISM_KEYS, "generator %d automorphism" % idx
        )
    orders = [g.get("order") for g in gens_spec]
    for o in orders:
        if not _is_int(o) or o < 1:
            raise ScenarioError("generator order must be a positive integer")
    base_order = lcm(1, *orders) if orders else 1
    order = data.get("cyclotomic_order", base_order)
    if not _is_int(order) or order < 1 or order % base_order != 0:
        raise ScenarioError(
            "cyclotomic_order must be a multiple of the generator order lcm %d"
            % base_order
        )
    fld = field(order)
    g = build_sl(_LIE_TYPES[lie_type], fld)
    rank = g.rd.rank

    generators = []
    for spec in gens_spec:
        scaling = spec.get("scaling")
        if not isinstance(scaling, list) or len(scaling) != nvars:
            raise ScenarioError("generator scaling must list %d entries" % nvars)
        pa = PointAction(tuple(parse_scalar(s, fld) for s in scaling))
        if any(s.is_zero() for s in pa.scalings):
            # a zero scaling would send points off the torus
            raise ScenarioError("generator scaling entries must be nonzero")
        aut_spec = spec.get("automorphism", {})
        tau_name = aut_spec.get("tau", "identity")
        if tau_name == "identity":
            tau = DiagramSymmetry.identity(rank)
        elif tau_name == "flip":
            tau = DiagramSymmetry.flip(rank)
        else:
            raise ScenarioError("tau must be 'identity' or 'flip'")
        a = aut_spec.get("a", [0] * rank)
        if not _int_list(a, rank):
            raise ScenarioError("automorphism exponents must list %d integers" % rank)
        zeta = parse_scalar(aut_spec.get("zeta", "zeta^0"), fld)
        try:
            mat = automorphism_matrix(g, tau, a, zeta)
        except ValueError as exc:
            raise ScenarioError("bad automorphism: %s" % exc)
        generators.append(GroupGenerator(spec["order"], pa, mat, tau))

    group = GammaGroup(g, generators)
    axiom_errors = group.axiom_errors()

    points = {}
    for name, coords in _mapping(data.get("points") or {}, "points").items():
        if not isinstance(coords, list) or len(coords) != nvars:
            raise ScenarioError("point %r must list %d coordinates" % (name, nvars))
        try:
            points[name] = Point(tuple(parse_scalar(c, fld) for c in coords))
        except ValueError as exc:
            raise ScenarioError("bad point %r: %s" % (name, exc))

    psis = {}
    psi_checks = {}
    for name, spec in _mapping(data.get("psi") or {}, "psi").items():
        _check_keys(spec, _PSI_KEYS, "psi %r" % name)
        values = _mapping(spec.get("values", {}), "psi %r values" % name)
        mapping = {}
        for pname, coords in values.items():
            if pname not in points:
                raise ScenarioError("psi %r names unknown point %r" % (name, pname))
            if not _int_list(coords, rank):
                raise ScenarioError(
                    "psi %r weight at %r must list %d integers" % (name, pname, rank)
                )
            mapping[points[pname]] = Weight(tuple(coords))
        try:
            psi = PsiFunction.of(mapping)
        except ValueError as exc:
            raise ScenarioError("bad psi %r: %s" % (name, exc))
        if spec.get("equivariant") and not axiom_errors:
            # psi_gamma returns only an equivariant psi (see its docstring).
            # A failed equivariant extension (non-transversal support) is a
            # mathematical validation failure, not a malformed file.
            try:
                psi = psi_gamma(group, psi)
                psi_checks[name] = True
            except ValueError:
                psi_checks[name] = False
        psis[name] = psi

    free, non_free = acts_freely(group)
    # Named points may share orbits (transversality is per-psi, enforced when
    # extending equivariantly); here we only ask that each one sits in the
    # free locus.  Points have nonzero coordinates, so gamma fixes a point
    # exactly when it scales every coordinate by 1: every named point has a
    # nontrivial stabilizer when the action is not free, and none otherwise.
    bad_points = [] if free else list(points)
    validation = {
        "group_axioms_ok": not axiom_errors,
        "group_axiom_errors": axiom_errors,
        "free_action": free,
        "non_free_elements": [list(x) for x in non_free],
        "x_star_ok": not bad_points,
        "x_star_violations": sorted(bad_points),
        "psi_equivariance": psi_checks,
        "generator_count": len(generators),
        "group_size": group.size,
    }
    return Scenario(
        name=data.get("name", "scenario"),
        field=fld,
        algebra=g,
        group=group,
        points=points,
        psis=psis,
        validation=validation,
    )


def validation_passed(scn: Scenario) -> bool:
    v = scn.validation
    return bool(
        v["group_axioms_ok"]
        and v["free_action"]
        and v["x_star_ok"]
        and all(v["psi_equivariance"].values())
    )
