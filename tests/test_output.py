"""Output files: pinned bytes of every writer, and one sink for paths and handles."""
import hashlib
import io

import numpy as np
import pytest

import netspread.spectral
from netspread.cli import main
from netspread.experiments import ExperimentConfig, run_experiment
from netspread.graphs import Graph, gen_powerlaw, load_edge_list, save_edge_list
from netspread.meanfield import LinkProbs, MfState, NodeParams
from netspread.meanfield import run as meanfield_run
from netspread.montecarlo import mc_ensemble
from netspread.ode import OdeParams, OdeState, integrate
from netspread.trajectory import Trajectory, _write_csv

from oracles import edge_list_reference, edge_set, write_csv_reference


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def csv_text(writer) -> str:
    buf = io.StringIO()
    writer.write_csv(buf)
    return buf.getvalue()


def mixed_trajectory() -> Trajectory:
    """Float times, an integer column and a float column with edge values."""
    return Trajectory(times=np.array([0.0, 0.5, 2.0]),
                      columns={"x": np.array([1, -2, 3]),
                               "y": np.array([-0.0, 1e-300, np.nan])})


# SHA-256 digests recorded with the per-cell formatter that the row template
# replaced; every writer must keep producing these bytes.

def test_ode_csv_with_float_times_is_pinned():
    traj = integrate("sir_epidemic", OdeState(s=0.99, i=0.01),
                     OdeParams(beta=0.5, gamma=0.1), dt=0.05, t_end=30.0)
    assert traj.times.dtype.kind == "f"
    assert sha256(csv_text(traj)) == (
        "d2c4670d78bb1d8f0d772e229c2ab1cf1085c7cf4be00304ba16cc0e98b2037d")


def test_meanfield_csv_with_int_times_is_pinned():
    g = gen_powerlaw(200, 2, 3)
    params = NodeParams.homogeneous(200, r=1.0, delta=0.1, gamma=0.3, nu=0.8, chi=0.1)
    res = meanfield_run("sirs", MfState.uniform(200, p0=0.1, w0=0.0),
                        LinkProbs.homogeneous(g, 0.2), params, max_steps=60, tol=1e-9)
    assert res.trajectory.times.dtype.kind == "i"
    assert sha256(csv_text(res.trajectory)) == (
        "d5a891ecda5b8e93143980dad2e6883d88236dfdf22725d7c22558458126b3d2")


def test_eigenvector_csv_is_pinned_and_solved_once(tmp_path, monkeypatch, capsys):
    graph, out = tmp_path / "g.edges", tmp_path / "ev.csv"
    save_edge_list(gen_powerlaw(200, 2, 3), graph)
    calls = []
    solve = netspread.spectral.power_iteration

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(netspread.spectral, "power_iteration", counted)
    assert main(["spectral", "--graph", str(graph), "--beta", "0.1",
                 "--gamma", "0.3", "--delta", "0.3",
                 "--eigenvector-csv", str(out)]) == 0
    assert capsys.readouterr().out == "s=1.08464302242 fast_extinction=false\n"
    assert len(calls) == 1
    assert sha256(out.read_bytes()) == (
        "874c29dcb8d599f93d322ab6b8eff98284cb65fc54a2679eef3ac0918494811b")


def test_sweep_csvs_and_manifest_are_pinned(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "model": "sis_meanfield", "seed": 3,
        "graph": {"family": "powerlaw", "n": 150, "m": 2},
        "params": {"beta": 0.2, "gamma": 0.3, "delta": 0.2, "p0": 0.1},
        "sweep": {"parameter": "beta", "base": 0.1, "increment": 0.1, "count": 3},
        "run": {"steps": 40},
    })
    run_experiment(cfg, tmp_path)
    digests = {f.name: sha256(f.read_bytes()) for f in sorted(tmp_path.iterdir())}
    assert digests == {
        "graph.edges": "3a16331e95e3fe771968a9d90275394e2f5af076068bc234b3c344e6c4163632",
        "manifest.json": "e750bffaaeddf689e00112b41831dffae2fd56972b4cc6d860d3793515f67b6c",
        "point_000.csv": "24af6d81128b465d8d73a19c50bcaa095002e9f32f5ffa60408fe61e18026cd9",
        "point_001.csv": "3e57b1364fa881d2465cd06cce196d31e9cf2536d552841c3681ae734d900837",
        "point_002.csv": "90f177d0d0b4eea34d191ddda965fe6082093c17742b58e68d8e84df2555f6bc",
    }


def _writers():
    g = gen_powerlaw(60, 2, 1)
    params = NodeParams.homogeneous(60, r=1.0, delta=0.2, gamma=0.2)
    ensemble = mc_ensemble(g, LinkProbs.homogeneous(g, 0.3), params,
                           init=0.1, steps=10, runs=3, seed=2)
    return {
        "edge_list": lambda dest: save_edge_list(g, dest),
        "trajectory": mixed_trajectory().write_csv,
        "ensemble": ensemble.write_csv,
    }


@pytest.mark.parametrize("name", ["edge_list", "trajectory", "ensemble"])
def test_path_and_handle_get_the_same_bytes(tmp_path, name):
    write = _writers()[name]
    buf = io.StringIO()
    write(buf)
    write(tmp_path / "out.txt")
    write(str(tmp_path / "out_str.txt"))
    want = buf.getvalue().encode("utf-8")
    assert (tmp_path / "out.txt").read_bytes() == want
    assert (tmp_path / "out_str.txt").read_bytes() == want


def test_integer_columns_are_plain_and_others_scientific():
    assert csv_text(mixed_trajectory()) == (
        "t,x,y\n"
        "0.000000000000e+00,1,-0.000000000000e+00\n"
        "5.000000000000e-01,-2,1.000000000000e-300\n"
        "2.000000000000e+00,3,nan\n"
    )


# The writers build each file with one format operation; the per-row and
# per-line formatters they replaced are the references.

CSV_COLUMNS = {
    "int_and_float": [np.arange(4), np.linspace(0.0, 1.0, 4), np.array([3, -1, 0, 7])],
    "edge_cells": [
        np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324]),
        np.array([2**53 + 1, -(2**63), 2**63 - 1, 0, -1], dtype=np.int64),
        np.array([2**64 - 1, 2**53 + 1, 0, 1, 2], dtype=np.uint64),
    ],
    "zero_rows": [np.empty(0), np.empty(0, dtype=np.int64)],
    # Trailing runs of rows that repeat every cell after the first column,
    # which the writer formats from one template; a run that started one
    # row early would copy a row that differs.
    "run_after_signed_zero": [np.arange(5.0), np.array([1.0, 0.0, -0.0, -0.0, -0.0]),
                              np.array([2.0, 3.0, 3.0, 3.0, 3.0])],
    "nan_run": [np.arange(4), np.array([0.5, np.nan, np.nan, np.nan])],
    "integer_runs": [
        np.linspace(0.0, 1.0, 5),
        np.array([7, -(2**63), -(2**63), -(2**63), -(2**63)], dtype=np.int64),
        np.array([0, 1, 2**64 - 1, 2**64 - 1, 2**64 - 1], dtype=np.uint64),
    ],
    "run_of_one_row": [np.arange(3), np.array([0.25, 0.25, 0.75])],
    "every_row_the_same": [np.full(4, 0.1), np.full(4, 3, dtype=np.int64), np.full(4, -0.0)],
    "single_column": [np.array([1.0, 2.0, 2.0, 2.0])],
    "first_column_repeats": [np.array([5.0, 5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0, 3.0])],
    # The columns of a row-major array, as EnsembleResult.write_csv passes
    # them: each is a strided view.
    "strided_columns": [*np.array([[0.0, 0.1, -0.0],
                                   [1.0, 0.2, 0.0],
                                   [2.0, 0.2, 0.0],
                                   [3.0, 0.2, 0.0]]).T],
}


@pytest.mark.parametrize("name", sorted(CSV_COLUMNS))
def test_write_csv_matches_per_row_reference(name):
    columns = CSV_COLUMNS[name]
    names = [f"c{j}" for j in range(len(columns))]
    buf = io.StringIO()
    _write_csv(buf, names, columns)
    assert buf.getvalue() == write_csv_reference(names, columns)


@pytest.mark.parametrize("graph", [lambda: Graph.from_edges(5, []),
                                   lambda: gen_powerlaw(10**5, 3, 7)],
                         ids=["edgeless", "powerlaw_1e5"])
def test_edge_list_matches_per_line_reference_and_loads_back(graph):
    g = graph()
    buf = io.StringIO()
    save_edge_list(g, buf)
    assert buf.getvalue() == edge_list_reference(g)
    h = load_edge_list(io.StringIO(buf.getvalue()))
    assert h.n == g.n and edge_set(h) == edge_set(g)
