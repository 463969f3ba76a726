import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import congested_transport
from congested_transport.cli import _csv, main


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


@pytest.mark.parametrize("edges, rc", [("edge a c\nedge a d\nedge b c\n", 0),
                                       ("edge a c\nedge a d\n", 1)],
                         ids=["one-pair-unreachable", "source-reaches-nothing"])
def test_wardrop_marginals_with_unreachable_pairs(tmp_path, capsys, edges, rc):
    # with edge b c the routing a -> d, b -> c is feasible; without it the
    # mass of b reaches no destination
    write(tmp_path / "n.net", "nodes 4\n" + edges + "source a\nsource b\ndest c\ndest d\n")
    write(tmp_path / "d.dem", "mu a 1\nmu b 1\nnu c 1\nnu d 1\n")
    out = tmp_path / "run"
    assert main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path / "d.dem"),
                 "--out", str(out)]) == rc
    if rc == 0:
        assert np.array_equal(np.loadtxt(out / "coupling.csv", delimiter=",", ndmin=2),
                              [[0.0, 1.0], [1.0, 0.0]])
    else:
        assert capsys.readouterr().err.startswith("error: destination")


NET_B_REACHES_NOTHING = "nodes 4\nedge a c\nedge a d\nsource a\nsource b\ndest c\ndest d\n"


@pytest.mark.parametrize("net, demand, message", [
    (NET_B_REACHES_NOTHING, "mu a 1\nmu b 1\nnu c 1\nnu d 1\n",
     "destination d unreachable from source b"),
    (NET_B_REACHES_NOTHING, "demand b d 1\n", "destination d unreachable from source b"),
    ("nodes 3\nedge a b\nsource a\ndest b\ndest c\n", "demand a b 1\n",
     "destination c unreachable from source a"),
], ids=["marginals", "fixed-demand", "no-source-reaches-c"])
def test_unreachable_error_names_node_labels(tmp_path, capsys, net, demand, message):
    write(tmp_path / "n.net", net)
    write(tmp_path / "d.dem", demand)
    assert main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path / "d.dem"),
                 "--out", str(tmp_path / "run")]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


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


def test_hotelling_exit_code_when_the_round_trip_fails(tmp_path):
    # the firm at 100 serves no consumer, so its price cannot be recovered
    write(tmp_path / "firms.pts", "point 0.0 0.0\npoint 100.0 0.0\n")
    write(tmp_path / "consumers.pts",
          "\n".join(f"point {float(x)!r} {1 / 401!r}" for x in np.linspace(0, 1, 401)) + "\n")
    out = tmp_path / "run"
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"),
               "--metric", "lp", "1", "--out", str(out)])
    assert rc == 2
    assert report_of(out)["results"]["roundtrip_error"] == pytest.approx(98.0)


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


@pytest.mark.parametrize("command", ["ot", "hotelling"])
def test_metric_exponent_not_finite(tmp_path, capsys, command):
    write(tmp_path / "a.pts", "point 0.0 1.0\n")
    files = ["--mu", "--nu"] if command == "ot" else ["--firms", "--consumers"]
    rc = main([command, files[0], str(tmp_path / "a.pts"), files[1], str(tmp_path / "a.pts"),
               "--metric", "lp", "nan", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: --metric lp: exponent must be finite, got nan\n"


def test_metric_kind_unknown(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
               "--metric", "l2", "1", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: unknown metric kind 'l2'\n"


@pytest.mark.parametrize("H", ["quadratic", "monomial 1", "monomial 3"])
def test_beckmann_flux_overflow_is_one_error_line(tmp_path, capsys, H):
    from congested_transport.grids import Grid, ScalarField, save_scalar_csv

    # finite densities whose flux squares overflow: one error after the first
    # check, with no numpy warning on stderr
    g = Grid(nx=8, ny=8, h=0.125)
    mu = np.random.default_rng(0).random((8, 8)) * 1e300
    save_scalar_csv(ScalarField(mu, g), tmp_path / "mu.csv")
    save_scalar_csv(ScalarField(np.full((8, 8), mu.sum() / 64), g), tmp_path / "nu.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                   "--H", H, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == ("error: the flux overflowed the floats by iteration 10: "
                                       "mu and nu are too large to solve for\n")


@pytest.mark.parametrize("H, scale", [("quadratic", 1e155), ("monomial 3", 1e140)])
def test_beckmann_cost_overflow_is_one_error_line(tmp_path, capsys, H, scale):
    from congested_transport.grids import Grid, ScalarField, save_scalar_csv

    # the flux stays finite through the loop, but the cost and dual sums
    # after it overflow: one error, with no numpy warning and no report
    g = Grid(nx=8, ny=8, h=0.125)
    mu = np.random.default_rng(0).random((8, 8)) * scale
    save_scalar_csv(ScalarField(mu, g), tmp_path / "mu.csv")
    save_scalar_csv(ScalarField(np.full((8, 8), mu.sum() / 64), g), tmp_path / "nu.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                   "--H", H, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == ("error: the flow cost overflowed the floats: "
                                       "mu and nu are too large to solve for\n")
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("h", [1e200, 1e-170], ids=["area-overflows", "area-underflows"])
def test_beckmann_grid_spacing_outside_the_floats(tmp_path, capsys, h):
    # h^2 overflows to inf, or underflows to 0 (so 8/h^2 is inf): the sidecar
    # is refused with one error, before any numpy warning; mu = nu
    for name in ("mu.csv", "nu.csv"):
        np.savetxt(tmp_path / name, np.ones((8, 8)), delimiter=",")
        write(tmp_path / f"{name}.grid", f"grid 8 8 {h!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == (f"error: grid spacing must be positive with a finite "
                                       f"h^2 and 8/h^2, got {h!r}\n")
    assert not (tmp_path / "run").exists()


def test_ot_mass_balance_is_relative(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1e-14\n")
    write(tmp_path / "b.pts", "point 1.0 2e-14\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys).startswith("error: total masses differ")
    # a supply 1e-11 above the demand is within the check and gets a plan
    write(tmp_path / "a.pts", "point 0.0 0.5\npoint 0.5 0.50000000001\n")
    write(tmp_path / "b.pts", "point 1.0 0.25\npoint 2.0 0.75\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--out", str(tmp_path / "run")])
    assert rc == 0


def test_beckmann_mass_balance_is_relative(tmp_path, capsys):
    from congested_transport.grids import Grid, ScalarField, save_scalar_csv

    g = Grid(nx=8, ny=8, h=0.125)
    save_scalar_csv(ScalarField(np.full((8, 8), 1e-12), g), tmp_path / "mu.csv")
    save_scalar_csv(ScalarField(np.full((8, 8), 2e-12), g), tmp_path / "nu.csv")
    rc = main(["beckmann", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
               "--H", "quadratic", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys).startswith("error: field masses differ")


def test_ot_measure_non_numeric_field(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\npoint 0.5 oops\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
               "--metric", "lp", "1", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'a.pts'}:2: non-numeric field")


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


def test_ot_explicit_cost(tmp_path):
    write(tmp_path / "a.pts", "point 0 0.5\npoint 1 0.5\n")
    write(tmp_path / "b.pts", "point 0 0.25\npoint 1 0.75\n")
    write(tmp_path / "cost.csv", "0,2\n3,1\n")
    out = tmp_path / "run"
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--cost", str(tmp_path / "cost.csv"), "--out", str(out)])
    assert rc == 0
    rep = report_of(out)
    assert rep["results"]["value"] == 1.0  # 0.25 at cost 0, 0.25 at 2, 0.5 at 1
    assert set(rep["inputs"]) == {"mu", "nu", "cost"}
    assert np.array_equal(np.loadtxt(out / "coupling.csv", delimiter=",", ndmin=2),
                          [[0.25, 0.25], [0.0, 0.5]])


def test_ot_empty_cost_file_is_one_error_line(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0\npoint 1.0 0.0\n")
    write(tmp_path / "cost.csv", "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's loadtxt warning must not reach stderr
        rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "a.pts"),
                   "--cost", str(tmp_path / "cost.csv"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys).startswith(
        f"error: {tmp_path / 'cost.csv'}: not a numeric CSV matrix")


@pytest.mark.parametrize("firms, message", [
    ("# no firms\n", ": contains no points"),
    ("point 0.0 0.0\npoint 1.0 0.5 0.5\n", ":2: inconsistent point dimension"),
    ("point 0 nan\n", ":1: non-finite field in '0 nan'"),
    ("point 0 0\npoint inf 1\n", ":2: non-finite field in 'inf 1'"),
], ids=["empty", "ragged", "nan-price", "inf-coordinate"])
def test_hotelling_firm_file_rejected(tmp_path, capsys, firms, message):
    write(tmp_path / "firms.pts", firms)
    write(tmp_path / "consumers.pts", "point 0.5 1.0\n")
    rc = main(["hotelling", "--firms", str(tmp_path / "firms.pts"),
               "--consumers", str(tmp_path / "consumers.pts"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {tmp_path / 'firms.pts'}{message}\n"


@pytest.mark.parametrize("command, flag, other", [("ot", "--mu", "--nu"),
                                                   ("hotelling", "--firms", "--consumers")])
def test_point_file_error_names_file_and_line(tmp_path, capsys, command, flag, other):
    # measures and firm files share one parser, and so its messages; the
    # comment line counts, so the bad line is line 3
    write(tmp_path / "a.pts", "# points\npoint 0.0 1.0\npoint 0.5\n")
    write(tmp_path / "b.pts", "point 0.5 1.0\n")
    rc = main([command, flag, str(tmp_path / "a.pts"), other, str(tmp_path / "b.pts"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == (f"error: {tmp_path / 'a.pts'}:3: "
                                       f"expected 'point <coords...> <value>'\n")


def test_ot_point_dimensions_differ(tmp_path, capsys):
    write(tmp_path / "a.pts", "point 0.0 1.0 0.5\npoint 1.0 0.0 0.5\n")
    write(tmp_path / "b.pts", "point 0.3 1.0\n")
    rc = main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: point dimensions differ: 2 and 1\n"


@pytest.mark.parametrize("mu, nu, message", [
    ("point 0 0 1e300\npoint 1e10 0 1e300\n", "point 1e10 1e10 1e300\npoint 0 1e10 1e300\n",
     "the transport value overflows"),
    ("point 0 1e308\npoint 1 1e308\n", "point 0 1e308\npoint 1 1e308\n",
     "the total mass overflows"),
], ids=["value", "mass"])
def test_ot_overflow_is_an_input_error(tmp_path, capsys, mu, nu, message):
    write(tmp_path / "mu.pts", mu)
    write(tmp_path / "nu.pts", nu)
    rc = main(["ot", "--mu", str(tmp_path / "mu.pts"), "--nu", str(tmp_path / "nu.pts"),
               "--metric", "lp", "1", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("which", ["net", "dem"])
def test_wardrop_file_not_utf8(tmp_path, capsys, which):
    net, dem = b"nodes 2\nedge s d\nsource s\ndest d\n", b"demand s d 1\n"
    bad = b"# caf\xe9\n"
    (tmp_path / "n.net").write_bytes(bad + net if which == "net" else net)
    (tmp_path / "d.dem").write_bytes(bad + dem if which == "dem" else dem)
    rc = main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path / "d.dem"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    name = "n.net" if which == "net" else "d.dem"
    assert _one_error_line(capsys).startswith(f"error: {tmp_path / name}: not UTF-8 text")


def test_wardrop_demand_is_a_directory(tmp_path, capsys):
    write(tmp_path / "n.net", "nodes 2\nedge s d\nsource s\ndest d\n")
    rc = main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "Is a directory" in _one_error_line(capsys)


def test_demand_total_overflows(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             "demand s d 1e308\ndemand s d 1e308\n")
    assert rc == 1
    assert err.startswith("error: fixed demand must have a finite total")


@pytest.mark.parametrize("dem", ["demand s d 1e155\n", "mu s 1e155\nnu d 1e155\n"])
def test_demand_cost_overflows(tmp_path, capsys, dem):
    """A finite demand whose cost H (here t^2/2) overflows is an input error,
    found before the solver runs."""
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d quadratic\nsource s\ndest d\n",
                             dem)
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith("error: demand total 1e+155 overflows the edge costs")
    assert not (tmp_path / "run").exists()


def test_demand_cost_overflows_along_a_path(tmp_path, capsys):
    """Each of ten edges in series has a finite cost at the total, but the
    path through them all does not: a check edge by edge let the solver end
    in a singular Newton system."""
    net = "nodes 11\n" + "".join(f"edge n{i} n{i + 1} quadratic\n" for i in range(10))
    rc, err = _wardrop_error(tmp_path, capsys, net + "source n0\ndest n10\n",
                             "demand n0 n10 1e154\n")
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith("error: demand total 1e+154 overflows the edge costs")


@pytest.mark.parametrize("dem, message", [
    ("mu s 1\nmu d 1\nnu d 2\n", "2: mu node is not a declared source"),
    ("mu s 1\nnu s 1\nnu d 0\n", "2: nu node is not a declared dest"),
])
def test_marginal_node_not_a_declared_endpoint(tmp_path, capsys, dem, message):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n", dem)
    assert rc == 1
    assert err.startswith(f"error: {tmp_path / 'd.dem'}:{message}")


def test_demand_file_mixing_fixed_and_marginal_lines(tmp_path, capsys):
    rc, err = _wardrop_error(tmp_path, capsys, "nodes 2\nedge s d\nsource s\ndest d\n",
                             "demand s d 1\nmu s 1\n")
    assert rc == 1
    assert err == f"error: {tmp_path / 'd.dem'}: mix of fixed and marginal demand lines\n"


def test_wardrop_node_that_is_source_and_destination(tmp_path):
    # the pair b -> b is routed on no edge
    write(tmp_path / "n.net", "nodes 3\nedge a b\nedge b c\nsource a\nsource b\ndest b\ndest c\n")
    write(tmp_path / "d.dem", "demand a c 1\ndemand b b 2\n")
    out = tmp_path / "run"
    rc = main(["wardrop", "--net", str(tmp_path / "n.net"), "--demand", str(tmp_path / "d.dem"),
               "--out", str(out)])
    assert rc == 0
    assert np.array_equal(np.loadtxt(out / "flows.csv", delimiter=",")[:, 3], [1.0, 1.0])
    assert np.array_equal(np.loadtxt(out / "coupling.csv", delimiter=","), [[0.0, 1.0], [2.0, 0.0]])


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


@pytest.mark.parametrize("cfg, message", [
    ({"grid": {"nx": 8, "ny": 8, "h": 1e200}},
     "grid spacing must be positive with a finite h^2 and 8/h^2, got 1e+200"),
    ({**_ATOMIC, "p": 700, "grid": {"nx": 8, "ny": 8, "h": 0.5}},
     "grid-to-atom cost |x - y|^700.0 overflows the floats"),
], ids=["grid-spacing", "cost-overflow"])
def test_city_out_of_float_range_is_one_error_line(tmp_path, capsys, cfg, message):
    write(tmp_path / "city.json", json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["city", "--config", str(tmp_path / "city.json"),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {message}\n"
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


# Small valid wardrop inputs, one line per entry: a network with two
# sources and two destinations and per-edge families, and a fixed and a
# marginal demand on it.
_NET = ["nodes 5", "edge a c quadratic", "edge a d affine_power 1 2", "edge b c monomial 1",
        "edge b d monomial 3", "edge c d", "edge d e", "source a", "source b", "dest d",
        "dest e"]
_DEMANDS = [["demand a d 1.5", "demand b e 0.5", "demand a e 1"],
            ["mu a 1", "mu b 2", "nu d 1.5", "nu e 1.5"]]
# Replacement tokens: node labels, directives, family names and numbers that
# are out of range, not finite, huge, or not numbers at all.
_TOKENS = ["a", "e", "z", "nodes", "edge", "source", "dest", "demand", "mu", "nu",
           "quadratic", "monomial", "affine_power", "0", "1", "2", "-1", "0.5", "1e308",
           "1e-320", "nan", "inf", "x", "#", "\u00e9", "3 4"]


@st.composite
def _wardrop_files(draw):
    """The network and demand lines with up to three edits: a line dropped,
    doubled, or given a token replaced, dropped or added."""
    files = [list(_NET), list(draw(st.sampled_from(_DEMANDS)))]
    for _ in range(draw(st.integers(0, 3))):
        lines = files[draw(st.integers(0, 1))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "double", "replace", "delete", "append"]))
        j = draw(st.integers(0, max(len(lines[i].split()) - 1, 0)))
        token = draw(st.sampled_from(_TOKENS)) if op in ("replace", "append") else None
        _edit_line(lines, i, j, op, token)
    return ["\n".join(lines) + "\n" for lines in files]


def _edit_line(lines, i, j, op, token, sep=None):
    """Drop or double line i, or drop token j of it, or replace it by token or
    put token before it; tokens are split at sep (None: at whitespace)."""
    parts = lines[i].split(sep)
    if op == "drop":
        del lines[i]
    elif op == "double":
        lines.insert(i, lines[i])
    elif op == "delete":
        lines[i] = (sep or " ").join(parts[:j] + parts[j + 1:])
    else:
        parts[j:j + (op == "replace")] = [token]
        lines[i] = (sep or " ").join(parts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(files=_wardrop_files())
def test_wardrop_input_fuzz(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("wardrop")
    # Latin-1 writes the token \u00e9 as one byte that is not UTF-8
    (root / "n.net").write_bytes(files[0].encode("latin-1"))
    (root / "d.dem").write_bytes(files[1].encode("latin-1"))
    rc = main(["wardrop", "--net", str(root / "n.net"), "--demand", str(root / "d.dem"),
               "--max-iter", "200", "--out", str(root / "run")])
    assert rc in (0, 1, 2)


# A valid beckmann input: two 3 x 2 densities of equal mass (CSV rows are
# y, columns x) and their 'grid nx ny h' sidecars, one file per entry.
_GRID_FILES = [["1,2,3", "0,1,1"], ["grid 3 2 0.5"], ["2,2,2", "1,1,0"], ["grid 3 2 0.5"]]
# Replacement tokens: sizes, spacings and densities that are out of range,
# not finite, huge, tiny or not numbers, and separators out of place.
_GRID_TOKENS = ["0", "1", "-1", "2", "4", "0.5", "0.25", "1e308", "-1e308", "1e-320", "nan",
                "inf", "x", "", "#", "grid", "é", "3 4", "1,2", "99999999999"]


@st.composite
def _grid_files(draw):
    """The density CSVs and sidecars with up to three edits: a line dropped or
    doubled, or a token replaced, dropped or added, in one file or at the
    same place in both densities (which keeps their masses equal). Both
    densities may first be scaled by a power of ten near the float limits."""
    scale = draw(st.sampled_from(["", "e-320", "e-160", "e154", "e300"]))
    files = [[",".join(v + scale for v in line.split(",")) if k % 2 == 0 else line
              for line in lines] for k, lines in enumerate(_GRID_FILES)]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        which = draw(st.integers(0, len(files) + 1))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        op = draw(st.sampled_from(["drop", "double", "replace", "delete", "append"]))
        token = draw(st.sampled_from(_GRID_TOKENS))
        for k in (0, 2) if which >= len(files) else (which,):
            lines, sep = files[k], " " if k % 2 else ","
            if lines:
                i = min(i, len(lines) - 1)
                _edit_line(lines, i, min(j, len(lines[i].split(sep)) - 1), op, token, sep)
    H = draw(st.sampled_from(["quadratic", "monomial 1", "affine_power 1 3"]))
    return ["\n".join(lines) + "\n" for lines in files], H


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_grid_files())
def test_beckmann_input_fuzz(tmp_path_factory, case):
    files, H = case
    root = tmp_path_factory.mktemp("beckmann")
    names = ["mu.csv", "mu.csv.grid", "nu.csv", "nu.csv.grid"]
    for name, text in zip(names, files):
        # Latin-1 writes the token é as one byte that is not UTF-8
        (root / name).write_bytes(text.encode("latin-1"))
    rc = main(["beckmann", "--mu", str(root / "mu.csv"), "--nu", str(root / "nu.csv"),
               "--H", H, "--max-iter", "50", "--out", str(root / "run")])
    assert rc in (0, 1, 2)


# Valid point files, one line per entry: two measures of equal mass in the
# plane, and two firms with prices (the trailing column) that share the
# consumers between them.
_POINT_FILES = [["point 0 0 0.5", "point 1 0 0.25", "point 0 1 0.25"],
                ["point 0.5 0.5 0.5", "point 1 1 0.25", "point 0 2 0.25"],
                ["point 0 0 0", "point 1 1 0.25"]]
# Replacement tokens: coordinates, masses and prices that are negative, zero,
# huge, tiny, not finite or not numbers, and directives out of place.
_POINT_TOKENS = ["point", "#", "0", "1", "-1", "0.5", "1e100", "1e308", "-1e308", "1e-320", "1e-14",
                 "nan", "inf", "-inf", "x", "\u00e9", "3 4"]


@st.composite
def _point_cases(draw):
    """The point files with up to three edits, as for wardrop, and a metric
    exponent; masses may first be scaled by a power of ten."""
    scale = draw(st.sampled_from(["", "e-300", "e-14", "e10", "e300"]))
    files = [[line + scale if k < 2 else line for line in lines]
             for k, lines in enumerate(_POINT_FILES)]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        lines = files[draw(st.integers(0, 2))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "double", "replace", "delete", "append"]))
        j = draw(st.integers(0, len(lines[i].split()) - 1))
        token = draw(st.sampled_from(_POINT_TOKENS)) if op in ("replace", "append") else None
        _edit_line(lines, i, j, op, token)
    p = draw(st.sampled_from(["1", "2", "0.5", "3", "0", "-1", "nan", "1e308", "x"]))
    return ["\n".join(lines) + "\n" for lines in files], p


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which strict JSON rejects")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_point_cases())
def test_point_input_fuzz(tmp_path_factory, case):
    files, p = case
    root = tmp_path_factory.mktemp("points")
    names = [root / "mu.pts", root / "nu.pts", root / "firms.pts"]
    for name, text in zip(names, files):
        # Latin-1 writes the token \u00e9 as one byte that is not UTF-8
        name.write_bytes(text.encode("latin-1"))
    mu, nu, firms = map(str, names)
    for argv in (["ot", "--mu", mu, "--nu", nu], ["hotelling", "--firms", firms, "--consumers", nu]):
        out = root / argv[0]
        assert main(argv + ["--metric", "lp", p, "--out", str(out)]) in (0, 1, 2)
        if (out / "report.json").exists():
            json.loads((out / "report.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)


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


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(arr=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7),
                      elements=st.one_of(st.sampled_from(_SPECIAL), st.floats())))
def test_csv_writes_the_bytes_of_the_plain_format(arr):
    # +0.0 is written without formatting; every field must still be the
    # '.17g' text of its value, -0.0, subnormals, infinities and nan included
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        _csv(path, arr, header=["x", "y"])
        written = path.read_bytes()
    rows = np.atleast_2d(arr)
    assert written == ("#x,y\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                                          for row in rows)).encode()


def test_csv_writes_integers_as_before(tmp_path):
    arr = np.array([[0], [3], [-2], [0]])
    _csv(tmp_path / "a.csv", arr)
    assert (tmp_path / "a.csv").read_text() == "0\n3\n-2\n0\n"
