"""Acceptance gate: ten structural criteria, one pass/fail line each.

Run with `pytest -v` (one PASSED/FAILED line per criterion) or `pytest -s`
(explicit ACCEPTANCE lines).  All checks are exact; timing bounds are wall
clock on a desk-scale machine.
"""

import contextlib
import importlib.util
import json
import os
import random
import sys
import time

import pytest

from emapalg.coordalg import EtaFunction, LaurentFunction
from emapalg.ema import (
    InvariantAlgebra,
    TruncatedAlgebra,
    constructive_lift,
    ideal_equality_check,
    power_ideal_check,
    verify_lift,
)
from emapalg.fields import QQ
from emapalg.homology import characterization_battery, ext1_ladder
from emapalg.linalg import Matrix
from emapalg.repmod import (
    PsiFunction,
    direct_sum,
    evaluation_module,
    extend_to,
    is_isomorphic,
    multiplicities,
    psi_gamma,
    tensor_product,
    twist,
    untwist,
)
from emapalg.rootdata import Weight
from emapalg.weyl import (
    check_choice_independence,
    check_gamma_twist,
    head,
    tensor_check,
    twisted_weyl,
    weyl_module,
)

from helpers import is_maximal_weight
from sl2_oracle import weyl_dim_sl2
from test_ema import flip_setup, pt, z2_setup

ROOT = os.path.join(os.path.dirname(__file__), "..")


@contextlib.contextmanager
def _criterion(num, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d (%s): FAIL" % (num, label), flush=True)
        raise
    print("ACCEPTANCE %2d (%s): PASS" % (num, label), flush=True)


def _psi(fld, mapping):
    return PsiFunction.of({pt(fld, c): Weight(w) for c, w in mapping.items()})


def test_criterion_01_evaluation_isomorphism():
    with _criterion(1, "evaluation isomorphism"):
        cases = [
            (z2_setup, [(1,), (2,), (1, 2), (2, 2)]),
            (flip_setup, [(1,), (2,), (1, 2)]),
        ]
        for setup, exp_lists in cases:
            g, group = setup()
            fld = g.field
            for exps in exp_lists:
                t0 = time.monotonic()
                eta = EtaFunction.of(
                    {pt(fld, k + 1): e for k, e in enumerate(exps)}
                )
                inv = InvariantAlgebra(g, group, eta)
                target, mat, matinv = inv.evaluation_iso(eta)
                assert inv.dim == target.dim
                assert mat.matmul(matinv) == Matrix.identity(fld, inv.dim)
                assert inv.check_iso_is_homomorphism(eta)
                assert time.monotonic() - t0 < 5.0, (setup.__name__, exps)


def test_criterion_02_constructive_lift():
    with _criterion(2, "constructive lift"):
        for setup in (z2_setup, flip_setup):
            g, group = setup()
            fld = g.field
            rng = random.Random(2024)
            t = LaurentFunction.variable(1, 0, fld=fld)
            t0 = time.monotonic()
            for _ in range(50):
                exps = {pt(fld, 1): rng.randint(1, 2)}
                if rng.random() < 0.5:
                    exps[pt(fld, 2)] = rng.randint(1, 2)
                eta = EtaFunction.of(exps)
                x = rng.choice(sorted(eta.support(), key=lambda p: p.sort_key()))
                draws = [rng.randint(-2, 2) for _ in range(g.dim)]
                a = {i: fld.scalar(c) for i, c in enumerate(draws) if c}
                if not a:
                    a = g.basis_vector(0)
                f = t ** rng.randint(0, 2) + LaurentFunction.constant(
                    1, fld.scalar(rng.randint(0, 3))
                )
                alpha, _, _ = constructive_lift(g, group, a, f, x, eta)
                ok, msg = verify_lift(g, group, alpha, a, f, x, eta)
                assert ok, msg
            assert time.monotonic() - t0 < 10.0, setup.__name__


def test_criterion_03_ideal_identities():
    with _criterion(3, "ideal identities"):
        g, group = z2_setup()
        fld = g.field
        x = pt(fld, 1)
        for m in (1, 2, 3):
            ambient = EtaFunction.of({x: 2 * m + 1})
            inv = InvariantAlgebra(g, group, ambient)
            assert ideal_equality_check(inv, EtaFunction.of({x: m}))
            assert power_ideal_check(inv, EtaFunction.of({x: 1}), m)


def test_criterion_04_category_isomorphism():
    with _criterion(4, "twist/untwist category isomorphism"):
        g, group = z2_setup()
        fld = g.field
        eta = EtaFunction.of({pt(fld, 1): 2, pt(fld, 2): 2})
        inv = InvariantAlgebra(g, group, eta)
        target, _, _ = inv.evaluation_iso()
        eval_psis = [
            _psi(fld, {1: (1,)}),
            _psi(fld, {1: (2,)}),
            _psi(fld, {1: (3,)}),
            _psi(fld, {2: (1,)}),
            _psi(fld, {2: (2,)}),
            _psi(fld, {1: (1,), 2: (1,)}),
            _psi(fld, {1: (2,), 2: (1,)}),
        ]
        battery = [evaluation_module(p, target) for p in eval_psis]
        battery.append(direct_sum(battery[0], battery[3]))
        battery.append(tensor_product(battery[0], battery[3]))
        battery.append(
            extend_to(weyl_module(g, _psi(fld, {1: (2,)})).module, target)
        )
        battery.append(
            extend_to(weyl_module(g, _psi(fld, {1: (1,)})).module, target)
        )
        assert len(battery) >= 10
        for mod in battery:
            tw = twist(mod, inv)
            assert untwist(tw).actions == mod.actions  # U after T
            assert twist(untwist(tw), inv).actions == tw.actions  # T after U
        for psi, mod in zip(eval_psis, battery):
            assert multiplicities(twist(mod, inv)) == {psi_gamma(group, psi): 1}
            vg = evaluation_module(psi_gamma(group, psi), inv)
            assert multiplicities(untwist(vg)) == {psi: 1}


def test_criterion_05_weyl_dimension_certificates():
    with _criterion(5, "Weyl dimension certificates"):
        from emapalg.liealg import build_sl

        t0 = time.monotonic()
        g = build_sl(2)
        for m in (1, 2, 3):
            expected = weyl_dim_sl2(m)  # independent exhaustive closure
            w = weyl_module(g, _psi(QQ, {1: (m,)}))
            assert w.dim == expected
            # three-way recomputation: enlarged buffer, enlarged N, reversed order
            assert w.certificate["buffer+1"] == expected
            assert w.certificate["N+1"] == expected
            assert w.certificate["reversed"] == expected
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_twisted_weyl_suite():
    with _criterion(6, "twisted Weyl suite"):
        g2, grp2 = z2_setup()
        fld2 = g2.field
        psi2 = psi_gamma(grp2, _psi(fld2, {1: (2,)}))
        assert check_choice_independence(grp2, psi2)
        tw, w, _ = twisted_weyl(grp2, psi2, [pt(fld2, 1)])
        assert untwist(tw).actions == w.module.actions  # U_x(W_Gamma) = W(psi_x)
        assert check_gamma_twist(grp2, psi2, [pt(fld2, 1)], (1,))
        g3, grp3 = flip_setup()
        fld3 = g3.field
        psi3 = psi_gamma(grp3, _psi(fld3, {1: (1, 0)}))
        assert check_gamma_twist(grp3, psi3, [pt(fld3, 1)], (1,))


def test_criterion_07_tensor_factorization():
    with _criterion(7, "tensor factorization"):
        from emapalg.liealg import build_sl

        g = build_sl(2)
        res = tensor_check(g, _psi(QQ, {1: (2,)}), _psi(QQ, {2: (1,)}))
        assert res["untwisted"]
        assert res["dim_product"] == res["dim_joint"]
        gz, grp = z2_setup()
        fld = gz.field
        res2 = tensor_check(
            gz, _psi(fld, {1: (1,)}), _psi(fld, {2: (1,)}), group=grp
        )
        assert res2["untwisted"] and res2["twisted"]


def test_criterion_08_maximal_weight_and_head():
    with _criterion(8, "maximal weight and head"):
        g, group = z2_setup()
        fld = g.field
        psi = psi_gamma(group, _psi(fld, {1: (2,)}))
        tw, w, _ = twisted_weyl(group, psi, [pt(fld, 1)])
        ok, top = is_maximal_weight(tw, psi)
        assert ok and top == psi
        hd = head(w.module)
        v = evaluation_module(_psi(fld, {1: (2,)}), w.module.algebra)
        ok, witness = is_isomorphic(hd, v)
        assert ok and witness is not None


def test_criterion_09_homological_battery():
    with _criterion(9, "homological battery"):
        t0 = time.monotonic()
        g, group = z2_setup()
        fld = g.field
        psi = psi_gamma(group, _psi(fld, {1: (2,)}))
        tw, _, _ = twisted_weyl(group, psi, [pt(fld, 1)])
        rep = characterization_battery(tw, psi, weight_bound=2, rungs=3)
        assert rep.verdict == "PASS"
        hd = evaluation_module(psi, tw.algebra)
        rep_hd = characterization_battery(hd, psi, weight_bound=2, rungs=3)
        assert rep_hd.verdict == "FAIL" and rep_hd.witness is not None
        padded = direct_sum(
            tw, evaluation_module(psi_gamma(group, _psi(fld, {1: (1,)})), tw.algebra)
        )
        rep_pad = characterization_battery(padded, psi, weight_bound=2, rungs=3)
        assert rep_pad.verdict == "FAIL" and rep_pad.witness is not None
        # the W-extension cocycle forces Ext^1(V(2w), V(0)) > 0 on every rung
        from emapalg.liealg import build_sl

        gq = build_sl(2)
        alg = TruncatedAlgebra(gq, EtaFunction.of({pt(QQ, 1): 1}))
        v2 = evaluation_module(_psi(QQ, {1: (2,)}), alg)
        v0 = evaluation_module(PsiFunction.of({}), alg)
        ladder = ext1_ladder(v2, v0, rungs=3)
        assert all(d >= 1 for d in ladder.dims)
        assert time.monotonic() - t0 < 300.0


def test_criterion_10_cli_determinism(tmp_path):
    with _criterion(10, "CLI determinism"):
        spec = importlib.util.spec_from_file_location(
            "make_goldens_acc", os.path.join(ROOT, "scripts", "make_goldens.py")
        )
        mg = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mg)
        for i, (scenario, slug, argv) in enumerate(mg.PAIRS):
            golden = mg.golden_path(scenario, slug)
            runs = []
            for tag in ("a", "b"):
                out = str(tmp_path / ("%s_%d.json" % (tag, i)))
                mg.run_pair(scenario, slug, argv, out)
                with open(out, "rb") as fh:
                    runs.append(fh.read())
            with open(golden, "rb") as fh:
                gold = fh.read()
            assert runs[0] == runs[1] == gold, (scenario, slug)
            json.loads(gold)  # goldens stay machine-parseable
