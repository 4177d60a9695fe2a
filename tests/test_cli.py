"""CLI commands, exit codes, determinism, golden-file regression."""

import json
import os
import subprocess
import sys

import pytest

from emapalg.cli import main
from helpers import one_more_seed_past_the_interval

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _run(argv, tmp_path, name="out.txt", fmt="machine"):
    out = str(tmp_path / name)
    code = main(argv[:1] + [argv[1]] + ["--format", fmt, "--output", out] + argv[2:])
    with open(out) as fh:
        return code, fh.read()


def test_validate_ok(tmp_path):
    code, text = _run(["validate", _fixture("sl2_z2.json")], tmp_path)
    assert code == 0
    rep = json.loads(text)
    assert rep["status"] == "ok" and rep["results"]["passed"]


def test_validate_failure_exit_1(tmp_path):
    data = json.load(open(_fixture("sl2_z2.json")))
    data["psi"]["bad"] = {"equivariant": True, "values": {"p1": [2], "m1": [2]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, text = _run(["validate", str(bad)], tmp_path)
    assert code == 1
    assert json.loads(text)["status"] == "check-failed"


def _bad_scaling(tmp_path):
    # the point scaling z -> zeta z of Q(zeta_4) has order 4, not 2
    data = json.load(open(_fixture("sl2_z2.json")))
    data["cyclotomic_order"] = 4
    data["generators"][0]["scaling"] = ["zeta"]
    bad = tmp_path / "bad_scaling.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def test_validate_reports_a_point_scaling_of_wrong_order(tmp_path):
    code, text = _run(["validate", _bad_scaling(tmp_path)], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert rep["results"]["group_axiom_errors"] == [
        "generator 0: point scaling order does not divide 2"
    ]


def test_twist_with_a_point_scaling_of_wrong_order_exit_2(tmp_path):
    # the failed axiom skips the equivariant extension, so psi2w is plain
    code, text = _run(["twist", _bad_scaling(tmp_path), "psi2w"], tmp_path)
    assert code == 2
    assert json.loads(text)["status"] == "input-error"


def test_zero_scaling_is_an_input_error(tmp_path):
    # a zero scaling sends points off the torus, like a zero point coordinate
    data = json.load(open(_fixture("sl2_z2.json")))
    data["generators"][0]["scaling"] = ["0"]
    path = tmp_path / "zero_scaling.json"
    path.write_text(json.dumps(data))
    for argv in (
        ["validate"],
        ["weyl", "psi2w"],
        ["twist", "psi2w"],
        ["irreps"],
        ["mult", "W(psi2w)"],
        ["ext", "psi2w"],
        ["battery", "psi2w"],
    ):
        code, text = _run(argv[:1] + [str(path)] + argv[1:], tmp_path)
        assert code == 2, (argv, text)
        assert json.loads(text)["status"] == "input-error"


def _with_automorphism(tmp_path, fixture, **automorphism):
    """The path of a copy of the fixture with its first generator's
    automorphism entries replaced."""
    data = json.load(open(_fixture(fixture)))
    data["generators"][0]["automorphism"].update(automorphism)
    path = tmp_path / ("aut_" + fixture)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "fixture, psi, a", [("sl2_z2.json", "psi2w", [1]), ("sl3_flip.json", "psi_w1", [0, 1])]
)
def test_zero_zeta_is_an_input_error(tmp_path, fixture, psi, a):
    # zeta^a for a zero zeta and a nonzero a has no inverse to send f_i to
    path = _with_automorphism(tmp_path, fixture, a=a, zeta="0")
    for argv in (
        ["validate"],
        ["weyl", psi],
        ["twist", psi],
        ["irreps"],
        ["mult", "W(%s)" % psi],
        ["ext", psi],
        ["battery", psi],
    ):
        code, text = _run(argv[:1] + [path] + argv[1:], tmp_path)
        assert code == 2, (argv, text)
        rep = json.loads(text)
        assert rep["status"] == "input-error"
        assert rep["results"]["error"].startswith("bad automorphism: zeta is 0")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.abspath(ROOT), "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "emapalg.cli", "validate", path, "--format", "machine"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and not proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["status"] == "input-error"


@pytest.mark.parametrize(
    "a, zeta",
    [
        # zeta^0 is 1, so this is the plain flip
        ([0, 0], "0"),
        # e_1 -> 2 e_2 and e_2 -> e_1 / 2 square to the identity: zeta need
        # not be a root of unity, only the automorphism has order 2
        ([1, -1], "2"),
    ],
)
def test_flip_automorphisms_of_order_two_validate(tmp_path, a, zeta):
    path = _with_automorphism(tmp_path, "sl3_flip.json", a=a, zeta=zeta)
    code, text = _run(["validate", path], tmp_path)
    assert code == 0, text
    assert json.loads(text)["results"]["passed"]


def test_automorphism_of_infinite_order_fails_the_order_axiom(tmp_path):
    # e -> 2e on sl2 has infinite order: a failed group axiom (exit 1), and
    # psi2w is then not extended, so twist refuses it as not equivariant
    path = _with_automorphism(tmp_path, "sl2_z2.json", a=[1], zeta="2")
    code, text = _run(["validate", path], tmp_path)
    assert code == 1, text
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert rep["results"]["group_axiom_errors"] == [
        "generator 0: automorphism order does not divide 2"
    ]
    code, text = _run(["twist", path, "psi2w"], tmp_path)
    assert code == 2, text
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert rep["results"]["error"].startswith("twist needs an equivariant psi")


def test_malformed_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, text = _run(["validate", str(bad)], tmp_path)
    assert code == 2
    assert json.loads(text)["status"] == "input-error"


def test_missing_scenario_exit_2(tmp_path):
    code, text = _run(["weyl", str(tmp_path / "absent.json"), "psiw"], tmp_path)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error" and rep["digest"] is None
    assert rep["results"]["error"].startswith("cannot read scenario: ")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(points=[1, 2]),
        lambda d: d["psi"]["psiw"].update(values={"p1": [1.5]}),
        lambda d: d["generators"][0].update(order=True),
    ],
)
def test_ill_typed_scenario_exit_2(tmp_path, mutate):
    data = json.load(open(_fixture("sl2_z2.json")))
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, text = _run(["validate", str(bad)], tmp_path)
    assert code == 2
    assert json.loads(text)["status"] == "input-error"


def test_unknown_psi_exit_2(tmp_path):
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "nope"], tmp_path)
    assert code == 2


def test_weyl_dim(tmp_path):
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["dim"] == 4


def test_twist_roundtrip(tmp_path):
    code, text = _run(["twist", _fixture("sl2_z2.json"), "psi2w"], tmp_path)
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["dim"] == 4
    assert rep["results"]["untwist_roundtrip"] == "identity"


def test_twist_explicit_transversal(tmp_path):
    code, text = _run(
        ["twist", _fixture("sl2_z2.json"), "psi2w", "--transversal", "p1"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["results"]["transversal"] == ["p1"]


@pytest.mark.parametrize("transversal", ["p1,m1", "p2"])
def test_twist_bad_transversal_exit_2(tmp_path, transversal):
    # p1 and m1 share an orbit; p2 misses the orbit of psi2w's support
    code, text = _run(
        ["twist", _fixture("sl2_z2.json"), "psi2w", "--transversal", transversal], tmp_path
    )
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert rep["results"]["error"].startswith("bad --transversal")


def test_twist_needs_equivariant(tmp_path):
    code, _ = _run(["twist", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 2


def test_irreps_one_orbit(tmp_path):
    code, text = _run(
        ["irreps", _fixture("sl2_z2_one_orbit.json"), "--bound", "1"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["count"] == 2


def test_mult_expression(tmp_path):
    code, text = _run(
        ["mult", _fixture("sl2_z2.json"), "V(psi2w_plain)*V(psi2w_plain)"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["dim"] == 9


def test_mult_bad_expression(tmp_path):
    code, _ = _run(["mult", _fixture("sl2_z2.json"), "V(psiw)+"], tmp_path)
    assert code == 2


def test_battery_pass(tmp_path):
    code, text = _run(
        ["battery", _fixture("sl2_z2.json"), "psi2w", "--bound", "2"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["results"]["verdict"] == "PASS"


@pytest.mark.parametrize("command", ["ext", "battery"])
@pytest.mark.parametrize("rungs", ["0", "-1"])
def test_rungs_below_one_exit_2(tmp_path, command, rungs):
    code, text = _run([command, _fixture("sl2_z2.json"), "psi2w", "--rungs", rungs], tmp_path)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert "--rungs" in rep["results"]["error"]


@pytest.mark.parametrize(
    "argv", [["ext", "psi2w"], ["battery", "psi2w"], ["irreps"]], ids=lambda a: a[0]
)
def test_negative_bound_exit_2(tmp_path, argv):
    # a negative bound enumerates no candidate: an empty table or a vacuous PASS
    code, text = _run(argv[:1] + [_fixture("sl2_z2.json")] + argv[1:] + ["--bound", "-1"], tmp_path)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert "--bound" in rep["results"]["error"]


@pytest.mark.parametrize("argv", [["weyl", "zero"], ["mult", "V(zero)"]], ids=lambda a: a[0])
def test_zero_psi_exit_2(tmp_path, argv):
    # a psi whose values are all zero has no total weight to size a truncation
    data = json.load(open(_fixture("sl2_z2.json")))
    data["psi"]["zero"] = {"values": {"p1": [0]}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    code, text = _run(argv[:1] + [str(path)] + argv[1:], tmp_path)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert "zero" in rep["results"]["error"]


def test_weyl_closed_form_failure_exit_1(tmp_path, monkeypatch):
    from emapalg import weyl

    push_down_seeds = weyl._push_down_seeds

    def one_relation_too_many(st, pairs):
        # (f x t) w = 0, of jet degree 1, cuts W(2 omega) down to V(2 omega)
        # in every build alike
        out = push_down_seeds(st, pairs)
        if st.degree == 1:
            ai = st.alg.index[(0, st.alg.g.f(0), (1,))]
            out.append(dict(st.act(ai, 0)))  # on the empty monomial, id 0
        return out

    monkeypatch.setattr(weyl, "_push_down_seeds", one_relation_too_many)
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert "Chari-Loktev" in rep["results"]["error"]


def test_weyl_buffer_one_failure_exit_1(tmp_path, monkeypatch):
    # (f x t) w = 0 among the push-downs from the tails one step past the
    # interval only, which buffer+1 alone reads: a failed check
    from emapalg import weyl

    monkeypatch.setattr(
        weyl, "_push_down_seeds", one_more_seed_past_the_interval(weyl._push_down_seeds)
    )
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert "buffer+1" in rep["results"]["error"]


def test_weyl_bracket_failure_exit_1(tmp_path, monkeypatch):
    # without the push-down seeds nothing cuts the span of the monomials in
    # the weight interval of 2 omega down to W(2 omega), and that span is no
    # module: the bracket check fails, and the CLI reports it as a failed check
    from emapalg import weyl

    monkeypatch.setattr(weyl, "_push_down_seeds", lambda st, pairs: [])
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert "action does not represent the bracket" in rep["results"]["error"]


def test_weyl_seed_past_the_interval_exit_1(tmp_path, monkeypatch):
    # a push-down left past the weight interval, which only the buffer+1
    # check lists, is a failed check, not a crash inside saturate
    from emapalg import weyl

    push_down_seeds = weyl._push_down_seeds

    def stray(st, pairs):
        out = push_down_seeds(st, pairs)
        return out + [{len(st.monomials) - 1: 1}] if len(st.monomials) > st.n_low else out

    monkeypatch.setattr(weyl, "_push_down_seeds", stray)
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert "leaves the weight interval" in rep["results"]["error"]


def test_weyl_weight_read_failure_exit_1(tmp_path, monkeypatch):
    # a build on a box off the weight interval whose Cartan actions carry an
    # eigenvalue that is no integer weight of a module of its dimension
    from emapalg import weyl

    monkeypatch.setattr(weyl, "_interval_top", lambda alg, psi: [0, 2])
    monkeypatch.setattr(weyl, "_push_down_seeds", lambda st, pairs: [])
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi_two_pt"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "check-failed"
    assert "is not an integer weight" in rep["results"]["error"]


def test_cap_exceeded(tmp_path, monkeypatch):
    monkeypatch.setenv("EMA_WEYL_MAX_DIM", "3")
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "cap-exceeded"
    assert rep["results"]["size"] > 3
    assert str(rep["results"]["size"]) in rep["results"]["error"]


@pytest.mark.parametrize(
    "argv, cap, message",
    [
        (["weyl", "psi2w_plain"], 3, "Weyl dimension bound %d"),
        (["mult", "W(psi2w_plain)"], 3, "Weyl dimension bound %d"),
        (["mult", "V(psi2w_plain)"], 2, "module dimension %d"),
        (["mult", "V(psi2w_plain)*V(psi2w_plain)"], 8, "module dimension %d"),
    ],
    ids=["weyl", "mult-W-atom", "mult-V-atom", "mult-product"],
)
def test_cap_message_names_the_number_compared(tmp_path, monkeypatch, argv, cap, message):
    # a W atom is refused on its Weyl dimension bound, which only dominates
    # its dimension; a V atom and a mult product on their module dimension
    monkeypatch.setenv("EMA_WEYL_MAX_DIM", str(cap))
    code, text = _run([argv[0], _fixture("sl2_z2.json")] + argv[1:], tmp_path)
    rep = json.loads(text)
    assert code == 1 and rep["status"] == "cap-exceeded"
    want = message % rep["results"]["size"] + " exceeds EMA_WEYL_MAX_DIM=%d" % cap
    assert rep["results"]["error"] == want


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_bad_cap_is_an_input_error(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("EMA_WEYL_MAX_DIM", cap)
    code, text = _run(["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "input-error"
    assert "EMA_WEYL_MAX_DIM" in rep["results"]["error"]


@pytest.mark.parametrize(
    "expr, size",
    [
        ("V(psi2w_plain)*V(psi2w_plain)*V(psi2w_plain)", 27),
        ("V(psi2w_plain)+V(psi2w_plain)*V(psi2w_plain)", 12),
        ("V(psi2w_plain)*V(psi2w_plain)+V(psi2w_plain)", 12),
    ],
)
def test_mult_checks_the_cap_before_combining(tmp_path, monkeypatch, expr, size):
    from emapalg import cli

    def refused(*args):
        raise AssertionError("modules combined before the cap check")

    monkeypatch.setattr(cli, "tensor_product", refused)
    monkeypatch.setattr(cli, "direct_sum", refused)
    monkeypatch.setenv("EMA_WEYL_MAX_DIM", "10")
    code, text = _run(["mult", _fixture("sl2_z2.json"), expr], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "cap-exceeded"
    assert rep["results"]["size"] == size


def test_mult_builds_each_distinct_weyl_atom_once(tmp_path, monkeypatch):
    from emapalg import cli

    calls = []
    build = cli.weyl_module
    monkeypatch.setattr(cli, "weyl_module", lambda g, psi: calls.append(psi) or build(g, psi))
    code, text = _run(
        ["mult", _fixture("sl3_flip.json"), "V(psi_w1)+W(psi_w1)*W(psi_w1)"], tmp_path
    )
    assert code == 0 and json.loads(text)["status"] == "ok"
    assert len(calls) == 1


def test_mult_builds_each_distinct_atom_once(tmp_path, monkeypatch):
    from emapalg import cli

    built = {"V": [], "W": []}
    evaluate, extend = cli.evaluation_module, cli.extend_to
    monkeypatch.setattr(
        cli, "evaluation_module", lambda psi, alg: built["V"].append(psi) or evaluate(psi, alg)
    )
    monkeypatch.setattr(cli, "extend_to", lambda m, alg: built["W"].append(m) or extend(m, alg))
    expr = "V(psi2w_plain)*V(psi2w_plain)+W(psi2w_plain)*V(psi_two_pt)+W(psi2w_plain)"
    code, text = _run(["mult", _fixture("sl2_z2.json"), expr], tmp_path)
    assert code == 0 and json.loads(text)["results"]["dim"] == 37
    # V(psi2w_plain) and V(psi_two_pt) once each, W(psi2w_plain) extended once
    assert len(built["V"]) == len(set(built["V"])) == 2
    assert len(built["W"]) == 1


def test_mult_builds_a_large_irreducible(tmp_path):
    # V((6, 6)) of sl3, the local Weyl module of the one-point truncation at
    # exponent 1, of Weyl dimension 7 * 7 * 14 / 2 = 343
    code, text = _run(["mult", _fixture("sl3_irreducible.json"), "V(psi_6w1_6w2)"], tmp_path)
    assert code == 0
    rep = json.loads(text)
    assert rep["status"] == "ok" and rep["results"]["dim"] == 343
    assert rep["results"]["multiplicities"] == [["{p1: (6,6)}", 1]]


def test_mult_checks_an_irreducible_against_the_cap_before_building(tmp_path, monkeypatch):
    from emapalg import liealg, repmod

    def refused(*args):
        raise AssertionError("irreducible built before the cap check")

    monkeypatch.setattr(liealg, "irreducible_module", refused)
    monkeypatch.setattr(repmod, "irreducible_module", refused)
    monkeypatch.setenv("EMA_WEYL_MAX_DIM", "100")
    code, text = _run(["mult", _fixture("sl3_irreducible.json"), "V(psi_6w1_6w2)"], tmp_path)
    assert code == 1
    rep = json.loads(text)
    assert rep["status"] == "cap-exceeded"
    assert rep["results"]["size"] == 343
    assert "343" in rep["results"]["error"]


@pytest.mark.parametrize(
    "command, psi",
    [
        ("weyl", "psi_6w1_6w2"),
        ("mult", "W(psi_6w1_6w2)"),
        ("twist", "psi_6w1_6w2_eq"),
        ("ext", "psi_6w1_6w2_eq"),
        ("battery", "psi_6w1_6w2_eq"),
    ],
)
def test_a_weyl_module_far_over_the_cap_reports_it(tmp_path, command, psi):
    # W((6, 6)) of sl3 has dim 3^12; its bound is counted, never listed, so
    # under a 1 GB address-space limit every command still reaches its
    # cap-exceeded report.  The twisted commands run on the equivariant
    # extension of the same psi, added to a copy of the scenario
    import resource

    data = json.load(open(_fixture("sl3_irreducible.json")))
    data["psi"]["psi_6w1_6w2_eq"] = {"equivariant": True, "values": {"p1": [6, 6]}}
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(data))
    env = {k: v for k, v in os.environ.items() if k != "EMA_WEYL_MAX_DIM"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.abspath(ROOT), "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "emapalg.cli", command, str(scn), psi, "--format", "machine"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "cap-exceeded"
    assert rep["results"]["size"] == 131835699822918


def test_mult_builds_each_irreducible_once(tmp_path, monkeypatch):
    # V((2)) at p1 is a factor of both atoms; it is built once per algebra
    from emapalg import weyl

    built = []
    build = weyl.one_point_weyl_module
    monkeypatch.setattr(
        weyl, "one_point_weyl_module", lambda g, lam: built.append(lam) or build(g, lam)
    )
    code, text = _run(["mult", _fixture("sl2_z2.json"), "V(psi2w_plain)*V(psi_two_pt)"], tmp_path)
    assert code == 0 and json.loads(text)["results"]["dim"] == 18
    assert sorted(lam.coords for lam in built) == [(1,), (2,)]


def _trivial_group_scenario(tmp_path):
    # no generators: the untwisted current algebra, whose group fixes every point
    data = {
        "name": "sl2_trivial_group",
        "lie_type": "A1",
        "num_variables": 1,
        "generators": [],
        "points": {"p1": ["2"], "p2": ["3"]},
        "psi": {
            "psi2w": {"equivariant": True, "values": {"p1": [2]}},
            "psi2w_plain": {"values": {"p1": [2]}},
        },
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_trivial_group_fixes_every_point(tmp_path):
    path = _trivial_group_scenario(tmp_path)
    reports = {}
    for argv in (
        ["validate"],
        ["weyl", "psi2w"],
        ["weyl", "psi2w_plain"],
        ["twist", "psi2w"],
        ["irreps", "--bound", "1"],
        ["mult", "V(psi2w)*W(psi2w)"],
        ["mult", "V(psi2w_plain)+W(psi2w_plain)"],
        ["ext", "psi2w"],
        ["battery", "psi2w"],
    ):
        code, text = _run(argv[:1] + [path] + argv[1:], tmp_path)
        assert code == 0, (argv, text)
        reports[" ".join(argv)] = json.loads(text)["results"]
    eq, plain = reports["weyl psi2w"], reports["weyl psi2w_plain"]
    assert eq["dim"] == plain["dim"] == 4
    assert eq["certificate"] == plain["certificate"]
    assert reports["irreps --bound 1"]["classes"] == [
        ["0", 1], ["{p1: (1); p2: (1)}", 4], ["{p1: (1)}", 2], ["{p2: (1)}", 2]
    ]


def test_human_format(tmp_path):
    code, text = _run(
        ["weyl", _fixture("sl2_z2.json"), "psi2w_plain"], tmp_path, fmt="human"
    )
    assert code == 0
    assert "dim: 4" in text


def _golden_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_goldens", os.path.join(ROOT, "scripts", "make_goldens.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_reports_byte_identical(tmp_path):
    mg = _golden_pairs()
    for scenario, slug, argv in mg.PAIRS:
        golden = mg.golden_path(scenario, slug)
        assert os.path.exists(golden), "missing golden for %s %s" % (scenario, slug)
        fresh = str(tmp_path / ("a_" + slug + scenario))
        mg.run_pair(scenario, slug, argv, fresh)
        fresh2 = str(tmp_path / ("b_" + slug + scenario))
        mg.run_pair(scenario, slug, argv, fresh2)
        a = open(fresh, "rb").read()
        b = open(fresh2, "rb").read()
        g = open(golden, "rb").read()
        assert a == b, "consecutive runs differ for %s %s" % (scenario, slug)
        assert a == g, "golden mismatch for %s %s" % (scenario, slug)


def test_main_builds_one_parser_for_many_calls(tmp_path, monkeypatch):
    # the parser is built on the first main call, not at import, and reused
    # by every later call, whatever its subcommand; the reports stay golden
    from emapalg import cli

    built = []
    build_parser = cli.build_parser

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        mg = _golden_pairs()
        picked = {"validate", "weyl_psi2w_plain", "twist_psi2w", "mult_sum", "ext_psiw"}
        pairs = [p for p in mg.PAIRS if p[0] == "sl2_z2.json" and p[1] in picked]
        assert not built
        for scenario, slug, argv in pairs:
            out = str(tmp_path / slug)
            mg.run_pair(scenario, slug, argv, out)
            assert open(out, "rb").read() == open(mg.golden_path(scenario, slug), "rb").read()
        assert main(["battery", "--rungs"]) == 2  # an argparse error reuses it too
        assert len(pairs) == len(picked) and len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "emapalg.cli", "validate", _fixture("sl3_flip.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: ok" in proc.stdout
