"""Laurent polynomial coordinate algebra of the torus (k^x)^n, rational
points, jet truncations A/m_x^e, the ideals attached to exponent functions,
interpolation, and the action of a finite abelian scaling group on points
and functions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .fields import QQ
from .linalg import Matrix
from .rootdata import DiagramSymmetry


@dataclass(frozen=True)
class Point:
    """A rational point of the torus: all coordinates nonzero."""

    coords: tuple

    def __post_init__(self):
        if any(c.is_zero() for c in self.coords):
            raise ValueError("torus points have nonzero coordinates")

    @property
    def nvars(self):
        return len(self.coords)

    def sort_key(self):
        return tuple(_elt_key(c) for c in self.coords)

    def __repr__(self):
        return "Point(%s)" % ", ".join(repr(c) for c in self.coords)


def _elt_key(c):
    return (
        c.field.order,
        tuple((int(q.numerator), int(q.denominator)) for q in c.coeffs),
    )


class LaurentFunction:
    """A Laurent polynomial: finite map from integer exponent tuples to
    nonzero field coefficients."""

    def __init__(self, nvars, terms=None, fld=QQ):
        self.nvars = nvars
        self.field = fld
        self.terms = {}
        if terms:
            for exp, c in dict(terms).items():
                if not c.is_zero():
                    self.terms[tuple(exp)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c}, fld=c.field)

    @classmethod
    def variable(cls, nvars, i, fld=QQ, power=1):
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {tuple(exp): fld.one}, fld=fld)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            out[exp] = c if s is None else s + c
        return LaurentFunction(self.nvars, out, fld=self.field)

    def __sub__(self, other):
        return self + LaurentFunction(
            other.nvars, {e: -c for e, c in other.terms.items()}, fld=other.field
        )

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return LaurentFunction(self.nvars, out, fld=self.field)

    def scale(self, c):
        return LaurentFunction(
            self.nvars, {e: c * v for e, v in self.terms.items()}, fld=self.field
        )

    def __pow__(self, n):
        acc = LaurentFunction.constant(self.nvars, self.field.one)
        base = self
        if n < 0:
            raise ValueError("negative powers of general functions not supported")
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LaurentFunction)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(map(abs, e)), e)):
            mono = "*".join(
                "t%d^%d" % (i + 1, k) for i, k in enumerate(exp) if k
            )
            parts.append("(%r)%s" % (self.terms[exp], "*" + mono if mono else ""))
        return " + ".join(parts)


@dataclass(frozen=True)
class EtaFunction:
    """A finitely supported exponent function on rational points."""

    assignments: tuple  # sorted tuple of (Point, positive int)

    @classmethod
    def of(cls, mapping):
        items = [(p, int(e)) for p, e in dict(mapping).items() if e > 0]
        items.sort(key=lambda pe: pe[0].sort_key())
        return cls(tuple(items))

    def support(self):
        return tuple(p for p, _ in self.assignments)

    def __getitem__(self, point):
        for p, e in self.assignments:
            if p == point:
                return e
        return 0

    def max_exponent(self):
        return max((e for _, e in self.assignments), default=0)

    def __le__(self, other):
        return all(e <= other[p] for p, e in self.assignments)

    def __or__(self, other):
        """The join: the pointwise max, the least upper bound for <=, and so
        the least truncation that modules over either truncation factor
        through."""
        return EtaFunction.of({p: max(self[p], other[p]) for p in self.support() + other.support()})

    def scale(self, n):
        return EtaFunction.of({p: n * e for p, e in self.assignments})

    def orbit_saturation(self, group):
        """Each point of every orbit gets the exponent of its representative."""
        out = {}
        for p, e in self.assignments:
            for q in group.orbit(p):
                out[q] = max(out.get(q, 0), e)
        return EtaFunction.of(out)


def jet_monomials(nvars, order):
    """Monomials u^beta with total degree < order, sorted by degree then lex."""
    out = []
    for deg in range(order):
        for exp in itertools.product(range(deg + 1), repeat=nvars):
            if sum(exp) == deg:
                out.append(exp)
    return out


class JetAlgebra:
    """The truncated local ring A/m_x^e in coordinates u_i = t_i - x_i."""

    def __init__(self, point: Point, order: int):
        if order < 1:
            raise ValueError("jet order must be at least 1")
        self.point = point
        self.order = order
        self.nvars = point.nvars
        self.monomials = jet_monomials(self.nvars, order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)


def _binomial_series(x, b, order, fld):
    """Coefficients of (x + u)^b truncated below u^order, b any integer."""
    out = []
    if b >= 0:
        for j in range(order):
            if j > b:
                break
            out.append(fld.scalar(comb(b, j)) * x ** (b - j))
    else:
        xinv = x.inverse()
        for j in range(order):
            c = fld.scalar((-1) ** j * comb(-b + j - 1, j))
            out.append(c * x**b * xinv**j)
    return out


def jet_expand(f: LaurentFunction, x: Point, e: int):
    """Taylor expansion of f at x truncated below total degree e, as a
    coefficient dict over u-monomials."""
    if e < 1:
        raise ValueError("jet order must be at least 1")
    fld = f.field if f.terms else x.coords[0].field
    out = {}
    for exp, c in f.terms.items():
        series = [
            _binomial_series(xi, b, e, fld) for xi, b in zip(x.coords, exp)
        ]
        for degs in itertools.product(*(range(len(s)) for s in series)):
            if sum(degs) >= e:
                continue
            term = c
            for s, d in zip(series, degs):
                term = term * s[d]
            if not term.is_zero():
                key = degs
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if not v.is_zero()}


class PointAction:
    """Coordinate scaling of the torus: z_i -> s_i z_i.  With no scalings (the
    group with no generators) it fixes every point and every function."""

    def __init__(self, scalings):
        self.scalings = tuple(scalings)

    def act_point(self, p: Point) -> Point:
        if not self.scalings:
            return p
        return Point(tuple(s * c for s, c in zip(self.scalings, p.coords)))

    def act_function(self, f: LaurentFunction) -> LaurentFunction:
        # (gamma . f)(z) = f(gamma^{-1} z): monomial t^b picks up prod s_i^{-b_i}
        out = {}
        for exp, c in f.terms.items():
            fac = c
            for s, b in zip(self.scalings, exp):
                fac = fac * s ** (-b)
            out[exp] = fac
        return LaurentFunction(f.nvars, out, fld=f.field)

    def jet_transport_factor(self, beta):
        """Scalar relating the u^beta coefficient at y to the one at gamma.y."""
        fac = 1
        for s, b in zip(self.scalings, beta):
            fac = fac * s ** (-b)
        return fac

    def is_trivial(self):
        return all(s == s.field.one for s in self.scalings)

    def compose(self, other):
        return PointAction(tuple(a * b for a, b in zip(self.scalings, other.scalings)))


@dataclass
class GroupGenerator:
    order: int
    point_action: PointAction
    automorphism: object  # GAutomorphism
    zeta: object  # primitive `order`-th root of unity in the scenario field


class GammaGroup:
    """A finite abelian group acting on the torus by coordinate scalings and
    on g by commuting automorphisms."""

    def __init__(self, algebra, generators, check=True):
        self.algebra = algebra
        self.generators = list(generators)
        self.elements = list(
            itertools.product(*(range(g.order) for g in self.generators))
        )
        self.size = len(self.elements)
        self.characters = list(self.elements)
        self._gmat = {}
        self._scaling = {}
        if check:
            errors = self.axiom_errors()
            if errors:
                raise ValueError(errors[0])

    @property
    def identity(self):
        return (0,) * len(self.generators)

    def inverse(self, gamma):
        return tuple(
            (-k) % g.order for k, g in zip(gamma, self.generators)
        )

    def g_matrix(self, gamma):
        m = self._gmat.get(gamma)
        if m is None:
            m = Matrix.identity(self.algebra.field, self.algebra.dim)
            for k, gen in zip(gamma, self.generators):
                for _ in range(k):
                    m = gen.automorphism.matrix.matmul(m)
            self._gmat[gamma] = m
        return m

    def point_action(self, gamma) -> PointAction:
        pa = self._scaling.get(gamma)
        if pa is None:
            fld = self.algebra.field
            nvars = len(self.generators[0].point_action.scalings) if self.generators else 0
            s = [fld.one] * nvars
            for k, gen in zip(gamma, self.generators):
                for i in range(nvars):
                    s[i] = s[i] * gen.point_action.scalings[i] ** k
            pa = PointAction(tuple(s))
            self._scaling[gamma] = pa
        return pa

    def out_part(self, gamma) -> DiagramSymmetry:
        rank = self.algebra.rd.rank
        tau = DiagramSymmetry.identity(rank)
        for k, gen in zip(gamma, self.generators):
            for _ in range(k):
                tau = gen.automorphism.out_part.compose(tau)
        return tau

    def act_point(self, gamma, p: Point) -> Point:
        return self.point_action(gamma).act_point(p)

    def act_function(self, gamma, f: LaurentFunction) -> LaurentFunction:
        return self.point_action(gamma).act_function(f)

    def act_weight(self, gamma, w):
        return self.out_part(gamma)(w)

    def orbit(self, p: Point):
        out = []
        for gamma in self.elements:
            q = self.act_point(gamma, p)
            if q not in out:
                out.append(q)
        return out

    def orbits(self, points):
        """The orbits that meet `points`, each as orbit(p) for the first
        listed point p in it (so orbit[0] is p), in the order of those p.
        The points form a transversal set (no two share an orbit, a repeated
        point counting as two) exactly when len(orbits(points)) == len(points)."""
        out, seen = [], set()
        for p in points:
            if p not in seen:
                out.append(self.orbit(p))
                seen.update(out[-1])
        return out

    def character_value(self, xi, gamma):
        """Value of the character labelled xi on the group element gamma."""
        fld = self.algebra.field
        acc = fld.one
        for t, k, gen in zip(xi, gamma, self.generators):
            acc = acc * gen.zeta ** (t * k)
        return acc

    def axiom_errors(self):
        """The failed group axioms, one message each: every generator's
        automorphism, point scaling and zeta have an order dividing the
        declared one, and the automorphisms commute."""
        fld = self.algebra.field
        one = Matrix.identity(fld, self.algebra.dim)
        errors = []
        for idx, gen in enumerate(self.generators):
            m = gen.automorphism.matrix
            acc = m
            for _ in range(gen.order - 1):
                acc = acc.matmul(m)
            if acc != one:
                errors.append(
                    "generator %d: automorphism order does not divide %d" % (idx, gen.order)
                )
            if any(c**gen.order != fld.one for c in gen.point_action.scalings):
                errors.append(
                    "generator %d: point scaling order does not divide %d" % (idx, gen.order)
                )
            if gen.zeta**gen.order != fld.one:
                errors.append(
                    "generator %d: zeta is not a root of unity of order %d" % (idx, gen.order)
                )
        for (i1, g1), (i2, g2) in itertools.combinations(enumerate(self.generators), 2):
            if not g1.automorphism.commutes_with(g2.automorphism):
                errors.append("generators %d and %d do not commute" % (i1, i2))
        return errors


def acts_freely(group: GammaGroup):
    """True iff no nontrivial element scales every coordinate trivially."""
    violations = []
    for gamma in group.elements:
        if gamma == group.identity:
            continue
        if group.point_action(gamma).is_trivial():
            violations.append(gamma)
    return (not violations), violations


def interpolate(assignments, fld=None):
    """A Laurent function with prescribed values on distinct points, found on
    a deterministic monomial ladder ordered by total degree then lex."""
    points = [p for p, _ in assignments]
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if p == q:
                raise ValueError("duplicate interpolation points")
    if not assignments:
        raise ValueError("empty interpolation data")
    fld = fld or points[0].coords[0].field
    nvars = points[0].nvars
    values = {}
    for i, (_, v) in enumerate(assignments):
        v = v if hasattr(v, "field") else fld.scalar(v)
        if not v.is_zero():
            values[i] = v
    ladder = []
    deg = 0
    while True:
        for exp in sorted(
            e
            for e in itertools.product(range(deg + 1), repeat=nvars)
            if sum(e) == deg
        ):
            ladder.append(exp)
        rows = []
        for p in points:
            row = []
            for exp in ladder:
                v = fld.one
                for x, k in zip(p.coords, exp):
                    v = v * x**k
                row.append(v)
            rows.append(tuple(row))
        sol = Matrix(rows, ncols=len(ladder), fld=fld).solve(values)
        if sol is not None:
            return LaurentFunction(nvars, {ladder[k]: c for k, c in sol.items()}, fld=fld)
        deg += 1
        if deg > 4 * len(points) + 4:
            raise RuntimeError("interpolation ladder failed to close")
