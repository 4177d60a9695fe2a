"""Per-layer instrumentation of emapalg, installed from outside the package.

``Tracer`` wraps the public functions of each module in timing spans and
aggregates them by name: calls, total time (outermost activation only) and
self time (duration minus the time covered by child spans).  The CLI entry
point is the root span, named ``cli.<command>``.

``OpCounter`` counts the calls too frequent to time (scalar operators,
``bracket_terms``, ``_Straightener.act``) and the sizes of the matrices given
to ``rref`` and built as CE ``d1``.  It runs in a pass of its own, because
counting slows the program down.

A wrapper replaces the original object in every ``emapalg`` module namespace
that holds it, so names bound by ``from .linalg import saturate`` are caught
as well.
"""

import fractions
import sys
import time
from collections import defaultdict

from emapalg import cli, ema, fields, homology, liealg, linalg, repmod, scenario, weyl
from metrics import COMMANDS

# (metric prefix, owner, attribute) of every timed function
TIMED = [
    ("linalg.rref", linalg, "rref"),
    ("linalg.Matrix.apply", linalg.Matrix, "apply"),
    ("linalg.Matrix.matmul", linalg.Matrix, "matmul"),
    ("linalg.Matrix.nullspace", linalg.Matrix, "nullspace"),
    ("linalg.saturate", linalg, "saturate"),
    ("linalg.Subspace.add_vector", linalg.Subspace, "add_vector"),
    ("linalg.joint_eigenspaces", linalg, "joint_eigenspaces"),
    ("linalg.restrict_operator", linalg, "restrict_operator"),
    ("weyl.weyl_module", weyl, "weyl_module"),
    ("weyl.build", weyl, "_build_once"),
    ("weyl.twisted_weyl", weyl, "twisted_weyl"),
    ("ema.InvariantAlgebra.init", ema.InvariantAlgebra, "__init__"),
    ("ema.evaluation_iso", ema.InvariantAlgebra, "evaluation_iso"),
    ("repmod.hom_space", repmod, "hom_space"),
    ("repmod.quotient_module", repmod, "quotient_module"),
    ("repmod.transport", repmod, "transport"),
    ("repmod.evaluation_module", repmod, "evaluation_module"),
    ("repmod.tensor_product", repmod, "tensor_product"),
    ("repmod.multiplicities", repmod, "multiplicities"),
    ("repmod.FiniteModule.check_bracket", repmod.FiniteModule, "check_bracket"),
    ("homology.CEComplex.build", homology.CEComplex, "__init__"),
    ("homology.CEComplex.h1", homology.CEComplex, "h1"),
    ("homology.ext1_ladder", homology, "ext1_ladder"),
    ("liealg.irreducible_module", liealg, "irreducible_module"),
    ("scenario.load_scenario", scenario, "load_scenario"),
]

_FE_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")
_Q_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__")


def _install(owner, attr, wrapper):
    """Put `wrapper` where `owner.attr` was.  A module-level function is also
    replaced in every other emapalg module that imported it by name."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if name == "emapalg" or name.startswith("emapalg."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _nonzero(x):
    # FieldElement.coeffs holds raw rationals, so this triggers no counted op
    coeffs = getattr(x, "coeffs", None)
    return any(coeffs) if coeffs is not None else x != 0


def _nnz(rows):
    """Nonzero entries of dense rows, or of sparse rows stored as dicts."""
    return sum(
        1 for row in rows for x in (row.values() if isinstance(row, dict) else row)
        if _nonzero(x)
    )


def scalar_backend():
    return fields._Q.__module__.split(".")[0]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)  # (enclosing span, span) -> calls
        self._active = defaultdict(int)
        self._open = []  # [name, time covered by child spans] per open span

    def _span(self, name, fn):
        clock = time.perf_counter
        calls, total, self_time, edges, active, open_spans = (
            self.calls, self.total, self.self_time, self.edges, self._active, self._open)

        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            edges[parent[0] if parent else None, name] += 1
            frame = [name, 0.0]
            open_spans.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                self_time[name] += dt - frame[1]
                active[name] -= 1
                if not active[name]:
                    total[name] += dt
                calls[name] += 1
                if parent is not None:
                    parent[1] += dt

        return wrapper

    def install(self):
        for name, owner, attr in TIMED:
            _install(owner, attr, self._span(name, getattr(owner, attr)))
        main = cli.main
        spans = {c: self._span("cli." + c, main) for c in COMMANDS}

        def root(argv):
            return spans.get(argv[0], main)(argv)

        cli.main = root

    def metrics(self):
        out = {}
        for name, _, _ in TIMED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".total_s"] = self.total[name]
            out[name + ".self_s"] = self.self_time[name]
        for c in COMMANDS:
            out["cli.%s.total_s" % c] = self.total["cli." + c]
        return out

    def call_edges(self):
        """[[enclosing span or None, span, calls], ...]"""
        return sorted(([p, n, c] for (p, n), c in self.edges.items()), key=str)


class OpCounter:
    def __init__(self):
        self.counts = defaultdict(int)
        self._bracket_keys = set()
        self._bracket_owners = []  # keeps ids in the keys from being reused

    def _count(self, owner, attr, key):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        setattr(owner, attr, wrapper)

    def install(self):
        counts = self.counts
        fe = fields.FieldElement
        for attr in _FE_OPS:
            self._count(fe, attr, "fields.fe_ops")
        self._count(fe, "is_zero", "fields.fe_is_zero")
        self._count(fe, "inverse", "fields.fe_inverse")
        if fields._Q is fractions.Fraction:
            for attr in _Q_OPS:
                self._count(fractions.Fraction, attr, "fields.q_ops")

        keys, owners = self._bracket_keys, self._bracket_owners
        for cls in (ema.TruncatedAlgebra, ema.InvariantAlgebra):
            def bracket_terms(obj, i, j, _fn=cls.bracket_terms):
                counts["ema.bracket_terms.calls"] += 1
                key = (id(obj), i, j)
                if key not in keys:
                    keys.add(key)
                    owners.append(obj)
                return _fn(obj, i, j)

            cls.bracket_terms = bracket_terms

        st = weyl._Straightener
        act = st.act

        def straightener_act(obj, alg_idx, mono):
            counts["weyl.Straightener.act.calls"] += 1
            return act(obj, alg_idx, mono)

        st.act = straightener_act
        st_init = st.__init__

        def straightener_init(obj, *args, **kwargs):
            st_init(obj, *args, **kwargs)
            counts["weyl.monomials"] += len(obj.monomials)

        st.__init__ = straightener_init

        rref = linalg.rref

        def sized_rref(rows, ncols):
            rows = list(rows)
            counts["linalg.rref.cells"] += len(rows) * ncols
            counts["linalg.rref.nnz"] += _nnz(rows)
            return rref(rows, ncols)

        _install(linalg, "rref", sized_rref)

        ce = homology.CEComplex
        ce_init = ce.__init__

        def sized_ce(obj, *args, **kwargs):
            ce_init(obj, *args, **kwargs)
            counts["homology.d1.cells"] += obj.d1.nrows * obj.d1.ncols
            counts["homology.d1.nnz"] += _nnz(obj.d1.entries)

        ce.__init__ = sized_ce

    def metrics(self):
        out = {
            key: self.counts[key]
            for key in ("fields.q_ops", "fields.fe_ops", "fields.fe_is_zero",
                        "fields.fe_inverse", "linalg.rref.cells", "linalg.rref.nnz",
                        "weyl.monomials", "weyl.Straightener.act.calls",
                        "ema.bracket_terms.calls", "homology.d1.cells", "homology.d1.nnz")
        }
        calls = out["ema.bracket_terms.calls"]
        out["ema.bracket_terms.hit_ratio"] = (
            1 - len(self._bracket_keys) / calls if calls else 0.0)
        return out
