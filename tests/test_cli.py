import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congested_transport
from congested_transport.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def two_route(tmp_path):
    write(tmp_path / "net.net",
          "nodes 2\nedge s d quadratic\nedge s d monomial 1\nsource s\ndest d\n")
    write(tmp_path / "fixed.dem", "demand s d 1.0\n")
    return tmp_path


def report_of(out):
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_wardrop_command(two_route):
    out = two_route / "run"
    rc = main(["wardrop", "--net", str(two_route / "net.net"),
               "--demand", str(two_route / "fixed.dem"),
               "--H", "quadratic", "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["objective"] == pytest.approx(0.5, abs=1e-6)
    assert rep["results"]["relative_gap"] <= 1e-6
    assert (out / "flows.csv").exists() and (out / "coupling.csv").exists()
    assert rep["config"]["H"] == "quadratic"  # resolved config is echoed


def test_wardrop_marginal_demand(two_route):
    write(two_route / "marg.dem", "mu s 1.0\nnu d 1.0\n")
    out = two_route / "run_marg"
    rc = main(["wardrop", "--net", str(two_route / "net.net"),
               "--demand", str(two_route / "marg.dem"), "--out", str(out)])
    assert rc == 0
    assert report_of(out)["results"]["demand_kind"] == "marginals"


def test_ot_command(tmp_path):
    write(tmp_path / "a.pts", "point 0.0 1.0\n")
    write(tmp_path / "b.pts", "point 1.0 1.0\n")
    out = tmp_path / "run"
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--metric", "lp", "1", "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert rep["results"]["duality_gap_rel"] <= 1e-8


def test_beckmann_command(tmp_path):
    from congested_transport.grids import Grid, ScalarField, save_scalar_csv

    g = Grid(nx=12, ny=12, h=1.0 / 12)
    rng = np.random.default_rng(0)
    a = rng.random((12, 12)); a /= a.sum() * g.cell_area
    b = rng.random((12, 12)); b /= b.sum() * g.cell_area
    save_scalar_csv(ScalarField(a, g), tmp_path / "mu.csv")
    save_scalar_csv(ScalarField(b, g), tmp_path / "nu.csv")
    out = tmp_path / "run"
    rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
               "--H", "quadratic", "--tol", "1e-8", "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["poisson_rel_diff"] <= 1e-6
    assert (out / "vx.csv").exists() and (out / "vy.csv.grid").exists()


def test_city_command_atomic(tmp_path):
    cfg = {
        "p": 2,
        "spread": {"family": "quadratic"},
        "concentration": {"kind": "atomic", "g": "power", "exponent": 0.5},
        "k_max": 1,
        "grid": {"nx": 24, "ny": 24, "h": 1.0 / 24},
        "tol": 1e-6,
    }
    write(tmp_path / "city.json", json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["k"] == 1
    assert (out / "mu.csv").exists() and (out / "nu_atoms.csv").exists()
    dec = rep["results"]["decomposition"]
    assert dec["transport"] + dec["spread"] + dec["concentration"] == pytest.approx(
        rep["results"]["value"], rel=1e-9)


def test_hotelling_command(tmp_path):
    lines = ["point 0.0 0.0", "point 1.0 0.5"]
    write(tmp_path / "firms.pts", "\n".join(lines) + "\n")
    grid = np.linspace(0.0, 1.0, 401)
    write(tmp_path / "consumers.pts",
          "\n".join(f"point {float(x)!r} {1 / 401!r}" for x in grid) + "\n")
    out = tmp_path / "run"
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"),
               "--metric", "lp", "1", "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["roundtrip_error"] <= 1e-6
    assert rep["results"]["demands"][0] == pytest.approx(301 / 401, abs=1e-9)


def test_selftest_command(tmp_path):
    assert main(["selftest", "--out", str(tmp_path)]) == 0


def test_city_command_interaction(tmp_path):
    cfg = {
        "p": 2,
        "spread": {"family": "quadratic"},
        "concentration": {"kind": "interaction"},
        "lambda": 1.0,
        "grid": {"nx": 32, "ny": 32, "h": 3.0 / 32},
        "tol": 1e-5,
        "n_atom_side": 8,
    }
    write(tmp_path / "city.json", json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["radius_analytic"] == pytest.approx((6 / np.pi) ** 0.25, rel=1e-12)
    assert (out / "potential.csv").exists()
    dec = rep["results"]["decomposition"]
    assert dec["transport"] + dec["spread"] + dec["concentration"] == pytest.approx(
        rep["results"]["value"], rel=1e-9)


def test_hotelling_command_negative_price(tmp_path):
    write(tmp_path / "firms.pts", "point 0.0 0.0\npoint 2.0 -0.5\n")
    pts = np.arange(513) / 256.0
    write(tmp_path / "consumers.pts",
          "\n".join(f"point {float(x)!r} {1 / 513!r}" for x in pts) + "\n")
    out = tmp_path / "run"
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"),
               "--metric", "lp", "1", "--out", str(out)])
    assert rc == 0
    assert report_of(out)["results"]["roundtrip_error"] <= 1e-6


def test_input_error_exit_code(tmp_path):
    write(tmp_path / "bad.net", "nodes 1\nedge a b\nsource a\ndest b\n")
    write(tmp_path / "d.dem", "demand a b 1\n")
    rc = main(["wardrop", "--net", str(tmp_path / "bad.net"),
               "--demand", str(tmp_path / "d.dem"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_ot_metric_exponent_not_a_number(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
               "--metric", "lp", "x", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --metric lp: non-numeric field")


def test_ot_measure_non_numeric_field(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\npoint 0.5 oops\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
               "--metric", "lp", "1", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 2: non-numeric field")


def test_hotelling_firm_non_numeric_field(tmp_path, capsys):
    write(tmp_path / "firms.pts", "point 0.0 0.0\npoint one 0.5\n")
    write(tmp_path / "consumers.pts", "point 0.5 1.0\n")
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'firms.pts'}:2: non-numeric")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("argv", [
    ["ot", "--mu", "a.pts", "--nu", "a.pts", "--tol", "1e-3"],
    ["hotelling", "--firms", "f.pts", "--consumers", "c.pts", "--max-iter", "9"],
    ["city", "--config", "c.json", "--tol", "1e-3"],
    ["selftest", "--tol", "1e-3"],
    ["wardrop", "--net", "n.net", "--demand", "d.dem", "--tol", "tiny"],
    ["beckmann", "--mu", "mu.csv"],
    ["transport"],
], ids=["ot-tol", "hotelling-max-iter", "city-tol", "selftest-tol", "wardrop-tol-value",
        "beckmann-missing-nu", "unknown-command"])
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # where '--out .' would write
    assert main(argv) == 1
    assert _one_error_line(capsys).startswith("error: congested-transport")


def test_ot_cost_not_numeric(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\npoint 1.0 0.0\n")
    write(tmp_path / "cost.csv", "0,1\n1,zero\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
               "--cost", str(tmp_path / "cost.csv"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys).startswith(
        f"error: {tmp_path / 'cost.csv'}: not a numeric CSV matrix")


@pytest.mark.parametrize("firms, message", [
    ("# no firms\n", ": firm file contains no points"),
    ("point 0.0 0.0\npoint 1.0 0.5 0.5\n", ":2: inconsistent point dimension"),
], ids=["empty", "ragged"])
def test_hotelling_firm_file_rejected(tmp_path, capsys, firms, message):
    write(tmp_path / "firms.pts", firms)
    write(tmp_path / "consumers.pts", "point 0.5 1.0\n")
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {tmp_path / 'firms.pts'}{message}\n"


def test_ot_point_dimensions_differ(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0 0.5\npoint 1.0 0.0 0.5\n")
    write(tmp_path / "b.pts", "point 0.3 1.0\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: point dimensions differ: 2 and 1\n"


def test_hotelling_point_dimensions_differ(tmp_path, capsys):
    write(tmp_path / "firms.pts", "point 0.0 0.0\npoint 1.0 0.5\n")
    write(tmp_path / "consumers.pts", "point 0.5 0.5 0.5\npoint 0.5 1.0 0.5\n")
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: point dimensions differ: 1 and 2\n"


def test_report_config_holds_only_read_options(tmp_path):
    write(tmp_path / "a.pts", "point 0.0 1.0\n")
    main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
          "--out", str(tmp_path / "ot")])
    assert report_of(tmp_path / "ot")["config"] == {"out": str(tmp_path / "ot"), "metric_p": 2.0}
    main(["selftest", "--out", str(tmp_path / "st")])
    assert report_of(tmp_path / "st")["config"] == {"out": str(tmp_path / "st")}


def test_nonconvergence_exit_code(tmp_path):
    from congested_transport.grids import Grid, ScalarField, save_scalar_csv

    g = Grid(nx=16, ny=16, h=1.0 / 16)
    rng = np.random.default_rng(1)
    a = rng.random((16, 16)); a /= a.sum() * g.cell_area
    b = rng.random((16, 16)); b /= b.sum() * g.cell_area
    save_scalar_csv(ScalarField(a, g), tmp_path / "mu.csv")
    save_scalar_csv(ScalarField(b, g), tmp_path / "nu.csv")
    rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
               "--H", "monomial 1", "--tol", "1e-12", "--max-iter", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def _strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


def test_determinism_across_runs(two_route):
    # identical inputs and output path: everything but timing is
    # byte-stable across repeated runs
    out = two_route / "run"
    snapshots = []
    for _ in range(2):
        rc = main(["wardrop", "--net", str(two_route / "net.net"),
                   "--demand", str(two_route / "fixed.dem"),
                   "--out", str(out)])
        assert rc == 0
        snapshots.append({
            "report": report_of(out),
            "flows": (out / "flows.csv").read_bytes(),
            "coupling": (out / "coupling.csv").read_bytes(),
        })
    assert _strip_timing(snapshots[0]["report"]) == _strip_timing(snapshots[1]["report"])
    assert snapshots[0]["flows"] == snapshots[1]["flows"]
    assert snapshots[0]["coupling"] == snapshots[1]["coupling"]


def _wardrop_error(tmp_path, capsys, net_text, dem_text, *extra):
    """Exit code and stderr of a wardrop run on the given network and demand."""
    write(tmp_path / "n.net", net_text)
    write(tmp_path / "d.dem", dem_text)
    rc = main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path / "d.dem"),
               *extra, "--out", str(tmp_path / "run")])
    return rc, capsys.readouterr().err


def test_wardrop_edge_cost_parameter_not_a_number(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys,
                             "nodes 2\nedge s d affine_power x 2\nsource s\ndest d\n",
                             "demand s d 1\n")
    assert rc == 1
    assert err.startswith("error: congestion parameters must be numbers")


def test_wardrop_H_parameter_not_a_number(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             "demand s d 1\n", "--H", "monomial x")
    assert rc == 1
    assert err.startswith("error: congestion parameters must be numbers")


def test_wardrop_H_parameter_not_finite(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             "demand s d 1\n", "--H", "monomial nan")
    assert rc == 1
    assert err.startswith("error: congestion needs finite a >= 0 and p >= 1")


def test_network_node_count_not_a_number(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes abc\nedge s d\nsource s\ndest d\n",
                             "demand s d 1\n")
    assert rc == 1
    assert err.startswith("error: line 1: expected 'nodes <n>'")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_demand_value_not_finite(tmp_path, capsys, value):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             f"demand s d {value}\n")
    assert rc == 1
    assert err.startswith(f"error: {tmp_path / 'd.dem'}:1: demand value must be finite")


def test_demand_value_not_a_number(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             "mu s one\nnu d 1\n")
    assert rc == 1
    assert err.startswith(f"error: {tmp_path / 'd.dem'}:1: non-numeric field")


def test_city_power_spread_without_exponent(tmp_path, capsys):
    write(tmp_path / "city.json", json.dumps({"spread": {"family": "power"}}))
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / 'city.json'}: a power spread needs a finite exponent 'm'")


_ATOMIC = {"concentration": {"kind": "atomic", "g": "power"}}
_ATOMIC_KEYS = "(its keys: 'concentration', 'grid', 'k_max', 'p', 'spread', 'tol')"
_INTERACTION_KEYS = ("(its keys: 'concentration', 'grid', 'lambda', 'n_atom_side', 'p', "
                     "'spread', 'tol')")


@pytest.mark.parametrize("cfg, message", [
    ({"p": "x"}, "'p' must be a finite number, got 'x'"),
    ({"p": None}, "'p' must be a finite number, got None"),
    ({"tol": [1e-6]}, "'tol' must be a finite number, got [1e-06]"),
    ({"lambda": True}, "'lambda' must be a finite number, got True"),
    ({"n_atom_side": 2.5}, "'n_atom_side' must be an integer, got 2.5"),
    ({**_ATOMIC, "k_max": "3"}, "'k_max' must be an integer, got '3'"),
    ({"concentration": {"kind": "atomic", "exponent": "half"}},
     "'exponent' must be a finite number, got 'half'"),
    ({"grid": {"nx": "many"}}, "'nx' must be an integer, got 'many'"),
    ({"grid": {"ny": 8.5}}, "'ny' must be an integer, got 8.5"),
    ({"grid": {"h": "0.1"}}, "'h' must be a finite number, got '0.1'"),
    ({"grid": 32}, "'grid' must be an object, got 32"),
    ({"spread": 3}, "'spread' must be an object, got 3"),
    ({"concentration": "atomic"}, "'concentration' must be an object, got 'atomic'"),
    ([2], "the config must be a JSON object"),
    ({"spread": {"family": "cubic", "m": 3}},
     "'family' must be one of 'quadratic', 'power', got 'cubic'"),
    ({"spread": {"m": 3}}, "'family' must be one of 'quadratic', 'power', got None"),
    ({"concentration": {"kind": "atomc"}},
     "'kind' must be one of 'atomic', 'interaction', got 'atomc'"),
    ({"p": 1}, "the 'interaction' city is the quadratic city, with p = 2 and the quadratic "
               "spread; got p = 1.0 and a quadratic spread"),
    ({"spread": {"family": "power", "m": 3}},
     "the 'interaction' city is the quadratic city, with p = 2 and the quadratic "
     "spread; got p = 2.0 and a power spread"),
    ({**_ATOMIC, "p": -1}, "'p' must be at least 1, got -1"),
    ({"tol": -1}, "'tol' must be positive, got -1.0"),
    ({"tol": 0}, "'tol' must be positive, got 0.0"),
    ({"n_atom_side": 0}, "'n_atom_side' must be at least 1, got 0"),
    ({**_ATOMIC, "k_max": 0}, "'k_max' must be at least 1, got 0"),
    ({"lambda": 0}, "'lambda' must be positive, got 0.0"),
    ({**_ATOMIC, "lambda": 1.0}, "the atomic city does not read 'lambda' " + _ATOMIC_KEYS),
    ({**_ATOMIC, "n_atom_side": 4}, "the atomic city does not read 'n_atom_side' " + _ATOMIC_KEYS),
    ({"k_max": 2}, "the interaction city does not read 'k_max' " + _INTERACTION_KEYS),
    ({"concentration": {"kind": "interaction", "exponent": 0.5}},
     "an interaction 'concentration' does not read 'exponent' (its keys: 'kind')"),
    ({"concentration": {"kind": "interaction", "g": "power"}},
     "an interaction 'concentration' does not read 'g' (its keys: 'kind')"),
    ({"spread": {"family": "quadratic", "m": 3}},
     "a quadratic 'spread' does not read 'm' (its keys: 'family')"),
    ({"spread": {"family": "power", "m": 3, "d": 1}, **_ATOMIC},
     "a power 'spread' does not read 'd' (its keys: 'family', 'm')"),
    ({"lamda": 1.0}, "the interaction city does not read 'lamda' " + _INTERACTION_KEYS),
    ({"grid": {"nx": 8, "ny": 8, "hx": 0.1}},
     "'grid' does not read 'hx' (its keys: 'h', 'nx', 'ny')"),
    ({**_ATOMIC, "concentration": {"kind": "atomic", "g": "log"}},
     "unknown atomic pole cost 'log' (supported: 'power')"),
    ({"concentration": {"kind": "atomic", "alpha": 0.5}},
     "an atomic 'concentration' does not read 'alpha' (its keys: 'exponent', 'g', 'kind')"),
], ids=["p", "p-null", "tol", "lambda", "n_atom_side", "k_max", "exponent", "grid-nx",
        "grid-ny", "grid-h", "grid", "spread", "concentration", "top-level",
        "spread-family-unknown", "spread-family-missing", "concentration-kind-unknown",
        "interaction-p", "interaction-spread", "p-below-one", "tol-negative", "tol-zero",
        "n_atom_side-zero", "k_max-zero", "lambda-zero", "atomic-lambda", "atomic-n_atom_side",
        "interaction-k_max", "interaction-exponent", "interaction-g", "quadratic-spread-m",
        "power-spread-d", "misspelled", "grid-key", "atomic-g",
        "atomic-concentration-key"])
def test_city_config_field_rejected(tmp_path, capsys, cfg, message):
    write(tmp_path / "city.json", json.dumps(cfg))
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'city.json'}: {message}\n"
    assert not (tmp_path / "run").exists()  # the whole config is checked before any output


@pytest.mark.parametrize("cfg", [
    {**_ATOMIC, "concentration": {"kind": "atomic", "exponent": 2}},
    {"grid": {"nx": 8, "ny": 8, "h": 0.1}},
], ids=["exponent-range", "domain-too-small"])
def test_city_spec_rejected_before_output(tmp_path, capsys, cfg):
    write(tmp_path / "city.json", json.dumps(cfg))
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(tmp_path / "run")])
    assert rc == 1
    _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_city_exit_code_when_a_pole_sweep_does_not_converge(tmp_path, monkeypatch):
    from congested_transport import urbanplan

    monkeypatch.setattr(urbanplan, "ATOMIC_MAX_OUTER", 1)
    write(tmp_path / "city.json", json.dumps({**_ATOMIC, "k_max": 2, "tol": 1e-12,
                                              "grid": {"nx": 8, "ny": 8, "h": 0.125}}))
    out = tmp_path / "run"
    assert main(["city", "--config", str(tmp_path / "city.json"), "--out", str(out)]) == 2
    results = report_of(out)["results"]
    assert results["converged"] is False
    assert results["per_k_converged"] == {"1": False, "2": False}


@pytest.mark.parametrize("cfg", [
    {"lambda": 4.0, "n_atom_side": 3, "tol": 1e-3, "grid": {"nx": 6, "ny": 7, "h": 0.4}},
    {**_ATOMIC, "k_max": 2, "tol": 1e-3, "grid": {"nx": 8, "ny": 8, "h": 0.125}},
], ids=["interaction", "atomic"])
def test_city_exit_code_when_an_inner_solve_does_not_converge(tmp_path, monkeypatch, cfg):
    from congested_transport import urbanplan

    monkeypatch.setattr(urbanplan, "P_NU_MAX_ITER", 1)
    write(tmp_path / "city.json", json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["city", "--config", str(tmp_path / "city.json"), "--out", str(out)]) == 2
    assert report_of(out)["results"]["converged"] is False


def test_city_config_not_json(tmp_path, capsys):
    write(tmp_path / "city.json", "{p: 2}")
    rc = main(["city", "--config", str(tmp_path / "city.json"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'city.json'}: not valid JSON")


# Values that the city config rejects (some only for one kind of city), by
# the path of the field they replace; the empty path replaces the whole
# config.
_CITY_BAD = [
    ((), [2]), (("p",), -1), (("p",), 0.5), (("p",), float("nan")), (("p",), True),
    (("p",), 1), (("tol",), 0), (("tol",), "1e-6"), (("lambda",), -1), (("lambda",), 0),
    (("k_max",), 0), (("k_max",), 1.5), (("n_atom_side",), 0), (("spread",), 3),
    (("spread",), {"m": 3}), (("spread",), {"family": "power", "m": 3}),
    (("spread", "family"), "cubic"), (("spread", "m"), 1), (("spread", "m"), float("inf")),
    (("concentration",), "atomic"), (("concentration", "kind"), "atomc"),
    (("concentration", "g"), "log"), (("concentration", "exponent"), 1.5),
    (("concentration", "exponent"), 0), (("grid", "nx"), 1), (("grid", "ny"), 2.5),
    (("grid", "ny"), None), (("grid", "h"), 0), (("grid", "h"), -0.1),
]


@st.composite
def _city_configs(draw):
    """A city config on a grid of at most 8 x 8 cells with k_max <= 2, some
    optional fields left out, and perhaps one field replaced by a value from
    _CITY_BAD. The solves stay cheap: the quadratic city has one service atom
    and the pole sweep a fine grid."""
    one = st.sampled_from
    if draw(st.booleans()):  # the quadratic city, on a domain that holds it
        cfg = {"grid": {"nx": draw(st.integers(6, 8)), "ny": draw(st.integers(6, 8)), "h": 0.4},
               "p": 2, "spread": {"family": "quadratic"},
               "concentration": {"kind": "interaction"},
               "lambda": draw(one([1.0, 4.0])), "n_atom_side": 1}
    else:
        cfg = {"grid": {"nx": draw(st.integers(2, 8)), "ny": draw(st.integers(1, 8)),
                        "h": 0.125},
               "p": draw(one([1, 1.5, 2, 3])),
               "spread": draw(one([{"family": "quadratic"}, {"family": "power", "m": 1.5},
                                   {"family": "power", "m": 3}])),
               "concentration": draw(one([{"kind": "atomic", "g": "power", "exponent": 0.5},
                                          {"kind": "atomic", "exponent": 1}])),
               "k_max": draw(one([1, 2]))}
    cfg["tol"] = draw(one([1e-3, 1e-6]))
    for key in draw(st.lists(one(["p", "spread", "tol"]), unique=True)):
        del cfg[key]  # left to its default
    bad = draw(st.one_of(st.none(), one(_CITY_BAD)))
    if bad is not None:
        path, value = bad
        if not path:
            return value
        *outer, key = path
        (cfg.setdefault(outer[0], {}) if outer else cfg)[key] = value
    return cfg


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cfg=_city_configs())
def test_city_config_fuzz(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("city")
    write(root / "city.json", json.dumps(cfg))
    assert main(["city", "--config", str(root / "city.json"), "--out", str(root / "run")]) in (0, 1, 2)


def test_cli_import_loads_no_scipy():
    """Importing the command line loads no scipy module: the solvers that use
    scipy import it on first call, so commands that do not need it start
    faster."""
    src = str(Path(congested_transport.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, congested_transport.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
