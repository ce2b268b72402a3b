import json
import math
import subprocess
import sys

import numpy as np
import pytest

from manisweep.cli import main
from manisweep.errors import StructuralError
from manisweep.scenario import (
    Scenario,
    bundled_scenario,
    bundled_scenario_path,
    document_hash,
    load_scenario,
)

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


@pytest.mark.parametrize(
    "manifold, set_, x0, error",
    [
        # as many equalities as coordinates: no tangent direction left
        ({"kind": "implicit", "dim": 2, "equalities": ["x1", "x2"]},
         {"kind": "inequalities", "exprs": ["1"]}, [0.0, 0.0], "StructuralError"),
        # three equalities exceed what the generated kernels support
        ({"kind": "implicit", "dim": 4, "equalities": ["x1", "x2", "x3"]},
         {"kind": "inequalities", "exprs": ["1"]}, [0.0, 0.0, 0.0, 1.0], "StructuralError"),
        # malformed set expression
        ({"kind": "euclidean", "dim": 1},
         {"kind": "inequalities", "exprs": ["x1 +"]}, [0.0], "ExpressionError"),
    ],
    ids=["no_tangent_direction", "three_equalities", "bad_expression"],
)
def test_cli_json_errors_are_typed(tmp_path, capsys, manifold, set_, x0, error):
    doc = dict(MINIMAL_HALFLINE, manifold=manifold, set=set_, initial_point=x0)
    code = main(["--json-errors", "validate", "--scenario", str(write(tmp_path, doc))])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


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
    proc = subprocess.run(
        [sys.executable, "-m", "manisweep.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
