import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manisweep.cli import main
from manisweep.errors import StructuralError
from manisweep.geometry import BACKENDS
from manisweep.moving_sets import CATALOG, half_space
from manisweep.scenario import (
    PERTURBATIONS,
    Scenario,
    bundled_scenario,
    bundled_scenario_path,
    document_hash,
    load_scenario,
)

SRC = Path(__file__).resolve().parent.parent / "src"

MINIMAL_HALFLINE = {
    "schema": 1,
    "name": "halfline",
    "manifold": {"kind": "euclidean", "dim": 1},
    "set": {"kind": "halfline", "offset": 0.0, "speed": 1.0},
    "horizon": 1.0,
    "initial_point": [0.0],
}


def write(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_minimal_halfline_defaults(tmp_path):
    scn = load_scenario(write(tmp_path, MINIMAL_HALFLINE))
    # K_L defaults to the boundary speed, the perturbation to zero
    assert scn.moving_set.lipschitz_const == 1.0
    assert scn.perturbation.sup_norm == 0.0
    assert scn.document["perturbation"]["kind"] == "zero"
    assert scn.tolerances.feasibility == 1e-10
    assert scn.seed == 0


def test_infeasible_initial_point_names_invariant(tmp_path):
    doc = dict(MINIMAL_HALFLINE, initial_point=[-1.0])
    with pytest.raises(StructuralError, match="x0 in C\\(0\\)"):
        load_scenario(write(tmp_path, doc))


def test_unknown_fields_rejected(tmp_path):
    doc = dict(MINIMAL_HALFLINE, extra_knob=1)
    with pytest.raises(StructuralError, match="extra_knob"):
        load_scenario(write(tmp_path, doc))
    doc2 = dict(MINIMAL_HALFLINE, manifold={"kind": "euclidean", "dim": 1, "typo": 2})
    with pytest.raises(StructuralError, match="typo"):
        load_scenario(write(tmp_path, doc2))
    doc3 = dict(MINIMAL_HALFLINE, tolerances={"feasibility": 1e-9, "bogus": 1})
    with pytest.raises(StructuralError, match="bogus"):
        load_scenario(write(tmp_path, doc3))
    # the tolerances are read by the solvers, so bad values are rejected too
    for field, value in [("uniqueness", 0.0), ("projector_kkt", -1e-9),
                         ("projector_step", math.inf), ("velocity_margin", math.nan),
                         ("feasibility", "tight")]:
        doc4 = dict(MINIMAL_HALFLINE, tolerances={field: value})
        with pytest.raises(StructuralError, match=f"tolerances.{field}"):
            load_scenario(write(tmp_path, doc4))


def test_schema_version_enforced(tmp_path):
    doc = dict(MINIMAL_HALFLINE, schema=2)
    with pytest.raises(StructuralError, match="schema"):
        load_scenario(write(tmp_path, doc))


def test_json_parse_error_carries_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": 1,,}')
    with pytest.raises(StructuralError, match="line 1"):
        load_scenario(p)


def test_round_trip_is_hash_stable(tmp_path):
    scn = bundled_scenario("disk_moving_center")
    out = tmp_path / "echo.json"
    scn.save(out)
    again = load_scenario(out)
    assert again.hash == scn.hash
    assert again.document == scn.document


def test_hashes_differ_between_scenarios():
    names = ("halfline", "disk_moving_center", "sphere_rotating_cap")
    hashes = {bundled_scenario(n).hash for n in names}
    assert len(hashes) == 3


def test_rotating_cap_descriptor_axis_path():
    scn = bundled_scenario("sphere_rotating_cap")
    S = scn.backend
    t = math.pi / 0.6  # omega * t = pi/2
    a_expect = np.array([1.0, 0.0, 0.0])
    val = scn.moving_set.constraint_values(t, S.point(a_expect))[0]
    assert val == pytest.approx(1.0, abs=1e-12)
    val0 = scn.moving_set.constraint_values(0.0, S.point([0, 0, 1.0]))[0]
    assert val0 == pytest.approx(1.0, abs=1e-12)


def test_bundled_scenario_listing_error():
    with pytest.raises(StructuralError, match="bundled"):
        bundled_scenario_path("no_such_scenario")


def test_cli_simulate_row_count(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            str(bundled_scenario_path("halfline")),
            "--h",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,x1,")
    assert len(lines) == 1 + 1001  # header + nodes for h = 1e-3 on [0, 1]
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["certified"] is True
    assert meta["scenario_hash"] == bundled_scenario("halfline").hash


def test_cli_simulate_deterministic_bytes(tmp_path):
    args = [
        "simulate",
        "--scenario",
        str(bundled_scenario_path("disk_moving_center")),
        "--h",
        "0.01",
    ]
    main(args + ["--out", str(tmp_path / "a.csv")])
    main(args + ["--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_validate_ok_and_broken(tmp_path, capsys):
    code = main(["validate", "--scenario", str(bundled_scenario_path("halfline"))])
    assert code == 0
    broken = write(tmp_path, dict(MINIMAL_HALFLINE, initial_point=[-2.0]), "broken.json")
    code = main(["validate", "--scenario", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert "x0 in C(0)" in err


def test_cli_json_errors(tmp_path, capsys):
    broken = write(tmp_path, dict(MINIMAL_HALFLINE, initial_point=[-2.0]), "broken.json")
    code = main(["--json-errors", "validate", "--scenario", str(broken)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "StructuralError"


def e2_inequality(expr):
    """A flat 2-d document whose set is the one inequality ``expr >= 0``."""
    return {"manifold": {"kind": "euclidean", "dim": 2},
            "set": {"kind": "inequalities", "exprs": [expr]}, "initial_point": [0.0, 0.0]}


@pytest.mark.parametrize(
    "expr",
    [" + ".join(["x1"] * 150) + " + 1", "(x1+x2)^2*" * 50 + "0.001 + 1",
     # their gradients, written inline, would nest deeper than Python compiles
     "(x1+x2)^2*" * 100 + "0.001 + 1", "(x1+1)/(" * 150 + "x2+1" + ")" * 150],
    ids=["sum_150", "product_50", "product_100", "quotient_150"],
)
def test_deep_expressions_within_the_nesting_limit_validate(tmp_path, expr):
    doc = dict(MINIMAL_HALFLINE, **e2_inequality(expr))
    assert main(["validate", "--scenario", str(write(tmp_path, doc))]) == 0


def e2_flow(component, sup_norm=1.0):
    """A flat 2-d perturbation with first component ``component``."""
    return {"kind": "expression", "components": [component, "0"], "sup_norm": sup_norm,
            "lipschitz": 0.0}


SIMULATE = ["simulate", "--h", "0.1", "--out", "{tmp}/run.csv"]
E2_BALL = {
    "manifold": {"kind": "euclidean", "dim": 2},
    "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "initial_point": [0.0, 0.0],
}
HALFLINE_FLOW = {
    "perturbation": {"kind": "expression", "components": ["0"], "sup_norm": 1.0, "lipschitz": 0.0}
}


@pytest.mark.parametrize(
    "changes, error, names, command",
    [(*case, ["validate"]) for case in [
        # as many equalities as coordinates: no tangent direction left
        ({"manifold": {"kind": "implicit", "dim": 2, "equalities": ["x1", "x2"]},
          "set": {"kind": "inequalities", "exprs": ["1"]}, "initial_point": [0.0, 0.0]},
         "StructuralError", ""),
        # three equalities exceed what the generated kernels support
        ({"manifold": {"kind": "implicit", "dim": 4, "equalities": ["x1", "x2", "x3"]},
          "set": {"kind": "inequalities", "exprs": ["1"]},
          "initial_point": [0.0, 0.0, 0.0, 1.0]},
         "StructuralError", ""),
        # malformed set expression
        ({"set": {"kind": "inequalities", "exprs": ["x1 +"]}}, "ExpressionError", ""),
        # malformed field values
        (dict(E2_BALL, set={"kind": "ball", "center": [0.0, 0.0], "radius": "big"}),
         "StructuralError", "set.radius"),
        (dict(E2_BALL, set={"kind": "ball", "center": ["a", "b"], "radius": 1.0}),
         "StructuralError", "set.center"),
        ({"constants": {"lipschitz_const": "fast"}},
         "StructuralError", "constants.lipschitz_const"),
        ({"constants": {"prox_radius_hint": "wide"}},
         "StructuralError", "constants.prox_radius_hint"),
        ({"perturbation": dict(HALFLINE_FLOW["perturbation"], sup_norm="one")},
         "StructuralError", "perturbation.sup_norm"),
        # missing required fields
        (dict(E2_BALL, set={"kind": "ball", "center": [0.0, 0.0]}),
         "StructuralError", "radius"),
        (dict(E2_BALL, set={"kind": "half_space"}), "StructuralError", "normal"),
        ({"set": {"kind": "inequalities"}}, "StructuralError", "exprs"),
        # field shapes
        (dict(E2_BALL, set={"kind": "half_space", "normal": [1.0, 0.0, 0.0]}),
         "StructuralError", "set.normal"),
        (dict(E2_BALL, set={"kind": "ball", "center": [0.0, 0.0], "radius": [1.0, 2.0]}),
         "StructuralError", "set.radius"),
        ({"set": [["kind", "halfline"]]}, "StructuralError", "set"),
        # top-level fields follow the same number rules as the blocks
        ({"horizon": float("inf")}, "StructuralError", "horizon"),
        ({"initial_point": [True]}, "StructuralError", "initial_point"),
        ({"seed": True}, "StructuralError", "seed"),
        ({"manifold": {"kind": "euclidean", "dim": True}}, "StructuralError", "manifold.dim"),
        # expressions nested deeper than Python compiles
        (e2_inequality("-" * 3000 + "x1 + 1"), "ExpressionError", "nests more than 200"),
        (e2_inequality(" + ".join(["x1"] * 300) + " + 1"), "ExpressionError",
         "nests more than 200"),
        # a literal that overflows to infinity
        (e2_inequality("1e999 - x1"), "ExpressionError", "1e999 is not a finite number"),
        # a zero cap axis has no direction to normalize
        ({"manifold": {"kind": "sphere", "dim": 2},
          "set": {"kind": "sphere_cap", "axis": [0.0, 0.0, 0.0]},
          "initial_point": [0.0, 0.0, 1.0]},
         "StructuralError", "cap axis must be nonzero"),
        # nor a zero rotation axis, once the cap rotates
        ({"manifold": {"kind": "sphere", "dim": 2},
          "set": {"kind": "sphere_cap", "axis": [0.0, 0.0, 1.0], "omega": 0.3,
                  "rotation_axis": [0.0, 0.0, 0.0]},
          "initial_point": [0.0, 0.0, 1.0]},
         "StructuralError", "rotation axis must be nonzero"),
        # a constant without a finite real value, rejected where it is written
        (e2_inequality("1 - x1^(10^400)"), "ExpressionError", "'10^400' has no finite real"),
        (e2_inequality("1 - x1^2 - x2^2 + 0*exp(1000)"), "ExpressionError", "'exp(1000)'"),
        (e2_inequality("1 - x1^(1/0)"), "ExpressionError", "'1/0' has no finite real"),
        (e2_inequality("1 - x1^2 - x2^2 + 0*sin(1e308*10)"), "ExpressionError", "'1e308*10'"),
        (e2_inequality("(-1)^0.5 + 1 - x1^2 - x2^2"), "ExpressionError", "'(-1)^0.5'"),
        (e2_inequality("1 - x1^((-8)^(1/3))"), "ExpressionError", "'(-8)^(1/3)'"),
        ({"manifold": {"kind": "implicit", "dim": 2,
                       "equalities": ["x1^2 + x2^2 - 1 + 0*(1/0)"]},
          "set": {"kind": "inequalities", "exprs": ["x1 + 2"]}, "initial_point": [1.0, 0.0]},
         "ExpressionError", "'1/0' has no finite real"),
    ]] + [
        # a step whose first time is 0 * inf = nan, or whose nodes are too many to build
        ({}, "StructuralError", "positive and finite, got inf",
         ["simulate", "--h", "inf", "--out", "{tmp}/run.csv"]),
        ({}, "StructuralError", "step 1e-300 needs more nodes than can be built",
         ["simulate", "--h", "1e-300", "--out", "{tmp}/run.csv"]),
        ({}, "StructuralError", "step 1e-300 needs more nodes than can be built",
         ["certify", "--h", "1e-300"]),
        # no sample to draw: not a sampler that found no pair
        ({}, "StructuralError", "n_samples must be >= 1", ["diagnose", "--samples", "0"]),
        ({}, "StructuralError", "n_samples must be >= 1", ["diagnose", "--samples", "-3"]),
        # a perturbation constant without a finite real value, not a failed run
        (dict(E2_BALL, perturbation=e2_flow("exp(1000)*0")), "ExpressionError",
         "'exp(1000)' has no finite real", SIMULATE),
        (dict(E2_BALL, perturbation=e2_flow("(-1)^0.5")), "ExpressionError",
         "'(-1)^0.5' has no finite real", SIMULATE),
        # a field with no real value where the run takes it
        (dict(e2_inequality("1e300 - exp(x1)"), perturbation=e2_flow("800", 800.0)),
         "NumericsError", "constraint '1e300 - exp(x1)' failed at t = 1: math range error",
         ["simulate", "--h", "1", "--out", "{tmp}/run.csv"]),
        (dict(E2_BALL, set=dict(E2_BALL["set"], radius=5.0), perturbation=e2_flow("(t - 2)^0.5")),
         "NumericsError", "failed at t = 0: complex value", SIMULATE),
        (e2_inequality("1 - exp((t - 2)^0.5)"), "NumericsError",
         "constraint '1 - exp((t - 2)^0.5)' failed at t = 0: must be real", ["validate"]),
    ],
    ids=["no_tangent_direction", "three_equalities", "bad_expression",
         "radius_not_a_number", "center_not_numbers", "lipschitz_const_not_a_number",
         "prox_radius_hint_not_a_number", "sup_norm_not_a_number",
         "ball_without_radius", "half_space_without_normal", "inequalities_without_exprs",
         "normal_wrong_length", "radius_a_list", "set_a_list",
         "horizon_infinite", "initial_point_bool", "seed_bool", "dim_bool",
         "negation_3000", "sum_300", "overflowing_literal",
         "cap_axis_zero", "rotation_axis_zero", "constant_power_overflows", "constant_exp_overflows",
         "constant_divides_by_zero", "constant_sin_of_inf", "constant_complex",
         "constant_complex_exponent", "implicit_constant_divides_by_zero",
         "simulate_step_infinite", "simulate_step_too_small",
         "certify_step_too_small", "diagnose_zero_samples", "diagnose_negative_samples",
         "perturbation_constant_overflows", "perturbation_constant_complex",
         "constraint_overflows_in_the_run", "perturbation_complex_in_the_run",
         "constraint_exp_of_a_complex_value"],
)
def test_cli_json_errors_are_typed(tmp_path, capsys, changes, error, names, command):
    doc = dict(MINIMAL_HALFLINE, **changes)
    options = [a.format(tmp=tmp_path) for a in command[1:]]
    scenario = str(write(tmp_path, doc))
    code = main(["--json-errors", command[0], "--scenario", scenario, *options])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == error
    assert names in payload["message"]


def test_a_failed_step_keeps_its_residual(tmp_path, capsys):
    # the restoration's residual, not null: the step cannot reach the set
    doc = dict(MINIMAL_HALFLINE, **e2_inequality("10 - exp(100*x1)"),
               perturbation=e2_flow("8", 8.0))
    argv = ["--json-errors", "simulate", "--scenario", str(write(tmp_path, doc)),
            "--h", "0.1", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "NumericsError"
    assert payload["residual"] > 0


def test_a_field_that_fails_in_the_run_fails_the_integration_check(tmp_path):
    doc = dict(MINIMAL_HALFLINE, **dict(e2_inequality("1 - x2"), initial_point=[1.0, 0.0]),
               perturbation=e2_flow("exp(1000*x1)"))
    out = tmp_path / "certify.json"
    assert main(["certify", "--scenario", str(write(tmp_path, doc)), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    [check] = [c for c in report["checks"] if c["name"] == "integration"]
    assert check["status"] == "fail"
    assert "perturbation ['exp(1000*x1)', '0'] failed at t = 0: math range error" in check["detail"]


# one valid document part per catalog kind, and the fields its builder requires
SET_KINDS = {
    "halfline": ({"kind": "euclidean", "dim": 1},
                 {"kind": "halfline", "offset": 0.0, "speed": 0.5}, [0.2], ()),
    "ball": ({"kind": "euclidean", "dim": 2},
             {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "velocity": [0.3, 0.4]},
             [0.1, 0.0], ("center", "radius")),
    "ball_complement": ({"kind": "euclidean", "dim": 2},
                        {"kind": "ball_complement", "center": [0.0, 0.0], "radius": 1.0},
                        [2.0, 0.0], ("center", "radius")),
    "half_space": ({"kind": "euclidean", "dim": 2},
                   {"kind": "half_space", "normal": [0.5, 0.0], "offset": 0.0, "speed": 1.0},
                   [0.0, 0.0], ("normal",)),
    "sphere_cap": ({"kind": "sphere", "dim": 2},
                   {"kind": "sphere_cap", "axis": [0.0, 0.0, 1.0], "height": 0.0,
                    "omega": -0.3, "rotation_axis": [1.0, 0.0, 0.0]},
                   [0.0, 0.0, 1.0], ("axis",)),
    "inequalities": ({"kind": "euclidean", "dim": 2},
                     {"kind": "inequalities", "exprs": ["1 - x1^2 - x2^2 + t"]},
                     [0.0, 0.0], ("exprs",)),
}
PERTURBATION_KINDS = {
    "zero": ({"kind": "zero"}, ()),
    "expression": ({"kind": "expression", "components": ["0.1", "x1"], "sup_norm": 2.0,
                    "lipschitz": 1.0}, ("components", "sup_norm", "lipschitz")),
}


def set_document(kind, **set_changes):
    manifold, set_, x0, _ = SET_KINDS[kind]
    return dict(MINIMAL_HALFLINE, manifold=manifold, set=dict(set_, **set_changes),
                initial_point=x0)


def test_every_builder_has_a_test_document():
    assert set(SET_KINDS) == set(CATALOG)
    assert set(PERTURBATION_KINDS) == set(PERTURBATIONS)


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_set_fields_come_from_the_builder(kind):
    Scenario(set_document(kind))
    with pytest.raises(StructuralError, match="bogus"):
        Scenario(set_document(kind, bogus=1.0))
    for name in SET_KINDS[kind][3]:
        doc = set_document(kind)
        del doc["set"][name]
        with pytest.raises(StructuralError, match=f"missing required field.*'{name}'"):
            Scenario(doc)


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_set_field_shapes_are_checked(kind):
    # a vector field holds one number per ambient coordinate, a scalar field one number
    for name, value in SET_KINDS[kind][1].items():
        if name == "kind" or (isinstance(value, list) and isinstance(value[0], str)):
            continue
        if isinstance(value, list):
            wrong = [value[:-1], value + [0.0], 1.0]
        else:
            wrong = [[value, value]]
        for bad in wrong:
            with pytest.raises(StructuralError, match=f"set.{name} must"):
                Scenario(set_document(kind, **{name: bad}))


@pytest.mark.parametrize("block", ["manifold", "set", "perturbation", "constants", "tolerances"])
def test_blocks_must_be_objects(block):
    with pytest.raises(StructuralError, match=f"{block} must be a JSON object"):
        Scenario(dict(MINIMAL_HALFLINE, **{block: [["kind", "zero"]]}))


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_perturbation_fields_come_from_the_builder(kind):
    block, required = PERTURBATION_KINDS[kind]
    doc = set_document("inequalities", exprs=["1"])
    Scenario(dict(doc, perturbation=block))
    with pytest.raises(StructuralError, match="bogus"):
        Scenario(dict(doc, perturbation=dict(block, bogus=1.0)))
    for name in required:
        partial = {k: v for k, v in block.items() if k != name}
        with pytest.raises(StructuralError, match=f"missing required field.*'{name}'"):
            Scenario(dict(doc, perturbation=partial))


# one valid manifold block per backend kind, with a point on the manifold
MANIFOLD_KINDS = {
    "euclidean": ({"kind": "euclidean", "dim": 2}, [0.0, 0.0]),
    "sphere": ({"kind": "sphere", "dim": 2}, [0.0, 0.0, 1.0]),
    "hyperbolic": ({"kind": "hyperbolic", "dim": 2}, [1.0, 0.0, 0.0]),
    "implicit": ({"kind": "implicit", "dim": 2, "equalities": ["x1^2 + x2^2 - 1"]},
                 [1.0, 0.0]),
}


def manifold_document(kind, **manifold_changes):
    manifold, x0 = MANIFOLD_KINDS[kind]
    return dict(MINIMAL_HALFLINE, manifold=dict(manifold, **manifold_changes),
                set={"kind": "inequalities", "exprs": ["1"]}, initial_point=x0)


def test_every_backend_has_a_test_document():
    assert set(MANIFOLD_KINDS) == set(BACKENDS)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_manifold_fields_come_from_the_backend_constructor(kind):
    scn = Scenario(manifold_document(kind))
    assert type(scn.backend) is BACKENDS[kind]
    with pytest.raises(StructuralError, match=r"bogus.* in manifold"):
        Scenario(manifold_document(kind, bogus=1))
    doc = manifold_document(kind)
    del doc["manifold"]["dim"]
    with pytest.raises(StructuralError, match="missing required field.*'dim'"):
        Scenario(doc)
    for bad in (True, 0, 1.5):
        with pytest.raises(StructuralError, match="manifold.dim must be a positive integer"):
            Scenario(manifold_document(kind, dim=bad))
    if "equalities" not in MANIFOLD_KINDS[kind][0]:
        return
    del doc["manifold"]["equalities"]
    with pytest.raises(StructuralError, match="missing required field.*'dim', 'equalities'"):
        Scenario(doc)
    for bad in ("x1^2 + x2^2 - 1", [1.0], [["x1"]], {"g": "x1"}):
        with pytest.raises(StructuralError, match="manifold.equalities must be a list"):
            Scenario(manifold_document(kind, equalities=bad))


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_omitted_constants_are_the_constructors_defaults(kind):
    scn = Scenario(set_document(kind))
    fields = dict(scn.document["set"])
    built = CATALOG[fields.pop("kind")](scn.backend, **fields)
    assert scn.moving_set.lipschitz_const == built.lipschitz_const
    assert scn.moving_set.prox_radius_hint == built.prox_radius_hint == 1.0
    assert scn.document["constants"] == {
        "lipschitz_const": built.lipschitz_const, "prox_radius_hint": 1.0
    }


def test_half_space_default_lipschitz_const_is_speed_over_normal(tmp_path):
    doc = set_document("half_space")
    scn = Scenario(doc)
    direct = half_space(scn.backend, normal=[0.5, 0.0], speed=1.0)
    assert scn.document["constants"]["lipschitz_const"] == direct.lipschitz_const == 2.0
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--scenario", str(write(tmp_path, doc)), "--h", "1e-2",
                 "--out", str(out)])
    assert code == 0
    assert json.loads((tmp_path / "traj.csv.meta.json").read_text())["certified"] is True


def test_halfline_analytic_solution_without_optional_fields():
    scn = Scenario(dict(MINIMAL_HALFLINE, set={"kind": "halfline"}))
    assert scn.analytic_solution()(0.5).coords[0] == 0.0
    scn = Scenario(dict(MINIMAL_HALFLINE, set={"kind": "halfline", "speed": -1.0}))
    assert scn.analytic_solution()(0.5).coords[0] == 0.0
    assert bundled_scenario("halfline").analytic_solution()(0.5).coords[0] == 0.5


def test_cli_rates_report(tmp_path):
    out = tmp_path / "rates.json"
    data = tmp_path / "rates.dat"
    code = main(
        [
            "rates",
            "--scenario",
            str(bundled_scenario_path("halfline")),
            "--levels",
            "5",
            "--out",
            str(out),
            "--data",
            str(data),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rate_study"
    assert "fitted_order" in doc
    assert len(data.read_text().strip().splitlines()) == 5


def test_cli_diagnose_report(tmp_path):
    out = tmp_path / "diag.json"
    code = main(
        [
            "diagnose",
            "--scenario",
            str(bundled_scenario_path("halfline")),
            "--samples",
            "120",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "diagnostics"
    assert doc["reports"]["log_monotonicity"]["fitted_A"] == pytest.approx(1.0, abs=1e-10)
    assert doc["reports"]["hypomonotonicity"]["fitted_E"] == 0.0


def test_cli_certify_report(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--scenario",
            str(bundled_scenario_path("halfline")),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"


#: golden, field changes, command and arguments, exit codes without and with --strict
STRICT_CASES = {
    # h = 0.6 exceeds the golden's admissible step 0.5
    "simulate_oversized_step": ("halfline", {}, ["simulate", "--h", "0.6"], (0, 1)),
    "certify_oversized_step": ("halfline", {}, ["certify", "--h", "0.6"], (0, 1)),
    # a resting boundary: every level is exact, so the order cannot be fitted
    "rates_saturated": (
        "halfline",
        {"set": {"kind": "halfline", "offset": 0.0, "speed": 0.0}},
        ["rates", "--levels", "4"],
        (0, 1),
    ),
    # the probe region lies inside the ball: no ray reaches the boundary
    "diagnose_no_boundary": (
        "static_convex",
        {"initial_point": [0.0, 0.0], "constants": {"prox_radius_hint": 0.5}},
        ["diagnose", "--samples", "40"],
        (0, 1),
    ),
    # outside the unit disk the projection is unique only up to distance 0.9
    # from the boundary, below the working radius 1.5 of the declared hint 3
    "diagnose_below_working_radius": (
        "static_convex",
        {
            "set": {"kind": "ball_complement", "center": [0.0, 0.0], "radius": 1.0},
            "initial_point": [1.2, 0.0],
            "constants": {"prox_radius_hint": 3.0},
        },
        ["diagnose", "--samples", "40"],
        (0, 1),
    ),
    # K_L = 0.5 understates the boundary speed 1, so the velocity bound fails
    "certify_velocity_bound_fails": (
        "halfline", {"constants": {"lipschitz_const": 0.5}}, ["certify"], (2, 2)
    ),
}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_cli_exit_codes_map_verdicts(tmp_path, capsys, case, strict):
    golden, changes, command, codes = STRICT_CASES[case]
    doc = json.loads(bundled_scenario_path(golden).read_text())
    for key, value in changes.items():
        doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    argv = [command[0], "--scenario", str(write(tmp_path, doc)), *command[1:]]
    argv += ["--out", str(tmp_path / "out")] + (["--strict"] if strict else [])
    assert main(argv) == codes[strict]


def test_cli_validate_echo_normalized(capsys):
    code = main(
        ["validate", "--scenario", str(bundled_scenario_path("halfline")), "--echo"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["constants"]["lipschitz_const"] == 1.0
    assert document_hash(doc) == bundled_scenario("halfline").hash


def test_console_script_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "manisweep.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = "import sys, manisweep.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
