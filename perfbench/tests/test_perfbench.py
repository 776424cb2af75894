"""Tests of the benchmark itself: its output checks reject corrupted
outputs, its inputs are a function of the seed, and BENCHMARK.json names
exactly the metrics it reports.

    python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from chargedgauss.fekete import FeketeConfig  # noqa: E402
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure  # noqa: E402
from chargedgauss.orthopoly import build_orthopolys, compute_zeros  # noqa: E402
from chargedgauss.planarquad import build_grid  # noqa: E402
from chargedgauss.schwarz import Trajectory  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


@pytest.fixture(scope="module")
def small_zeros():
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3 + 0.1j, 0.5),)),
                           N=12.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 64), max_degree=12)
    ops = build_orthopolys(p, grid, 6)
    return ops, compute_zeros(ops, 6)


def test_zero_check_rejects_one_perturbed_zero(small_zeros):
    ops, zs = small_zeros
    coeffs = ops.monic_coeffs[zs.n]
    assert checks.zeros_product_form(zs, coeffs) == []
    bad = zs.zeros.copy()
    bad[2] += 1e-4
    corrupted = type(zs)(n=zs.n, zeros=bad, max_residual=zs.max_residual)
    assert checks.zeros_product_form(corrupted, coeffs)


def test_reference_zeros_match_mpmath_eig(small_zeros):
    ops, zs = small_zeros
    n = zs.n
    ref = checks.reference_zeros(ops.hessenberg, n)
    with mp.workdps(30):
        H = mp.matrix([[mp.mpc(str(ops.hessenberg[i, j].real),
                               str(ops.hessenberg[i, j].imag))
                        for j in range(n)] for i in range(n)])
        eig = np.array([complex(e) for e in mp.eig(H, left=False, right=False)])
    assert checks.zero_error(ref, eig) < 1e-14
    assert checks.zero_error(zs.zeros, ref) < 1e-8
    moved = zs.zeros.copy()
    moved[0] += 1e-3
    assert checks.zero_error(moved, ref) > 5e-4


def _fekete(converged):
    return FeketeConfig(n=200, points=np.zeros(200, dtype=complex),
                        energy=1.0, grad_norm=1e-9 if converged else 5e-4,
                        converged=converged, seed=0)


def test_fekete_check_rejects_non_convergence():
    disc = {"fraction_inside": 1.0, "max_annulus_discrepancy": 0.01}
    assert checks.fekete(_fekete(True), 1e-8, disc) == []
    reasons = checks.fekete(_fekete(False), 1e-8, disc)
    assert len(reasons) == 1 and "not converged" in reasons[0]


def _trajectory(residual):
    return Trajectory(points=np.array([0.0, 0.1 + 0.1j]), start_tag="branch",
                      end_tag="branch", max_residual=residual)


def test_trajectory_check_rejects_residual_over_bound():
    assert checks.trajectories([_trajectory(1e-5), _trajectory(9e-4)]) == []
    assert checks.trajectories([_trajectory(1e-5), _trajectory(2e-3)])
    assert checks.trajectories([])


def test_attractor_check_needs_monotone_means():
    assert checks.attractor_means([0.2, 0.1, 0.04], R=1.2) == []
    assert checks.attractor_means([0.2, 0.21, 0.04], R=1.2)
    assert checks.attractor_means([0.2, 0.1, 0.07], R=1.2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    np.testing.assert_equal(make_inputs(name, 11), make_inputs(name, 11))
    with pytest.raises(AssertionError):
        np.testing.assert_equal(make_inputs(name, 11), make_inputs(name, 12))


def test_cavity_inputs_keep_the_fd_point_away_from_charges():
    from workloads import FD_GAP
    for seed in range(5):
        for _, charges, z in make_inputs("dbar_cavities", seed):
            assert 2 <= len(charges) <= 3
            assert min(abs(z - a) for a, _ in charges) >= FD_GAP


def test_self_time_excludes_child_spans():
    tr = Tracer(True)
    tr.spans = [
        {"name": "dbar.fd_order", "start": 0.0, "end": 3.0, "parent": None,
         "job": "j", "error": None},
        {"name": "planarquad.cauchy_transform", "start": 0.5, "end": 1.5,
         "parent": 0, "job": "j", "error": None},
        {"name": "planarquad.cauchy_transform", "start": 2.0, "end": 2.5,
         "parent": 0, "job": "j", "error": "ValueError"},
    ]
    s = tr.summarize()
    assert s["dbar.fd_order.s"] == 3.0
    assert s["dbar.fd_order.self_s"] == 1.5
    assert s["planarquad.cauchy_transform.calls"] == 2
    assert s["planarquad.errors"] == 1


def test_untraced_calls_record_no_spans():
    tr = Tracer(False)
    assert tr.call(abs, -2) == 2
    assert tr.spans == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(worker.PER_LAYER)
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeros_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
