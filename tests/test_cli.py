import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chargedgauss import dbar, fekete, orthopoly, planarquad, schwarz
from chargedgauss.measures import EMPTY_MEASURE
from chargedgauss.orthopoly import build_orthopolys
from chargedgauss.planarquad import build_grid
from chargedgauss.cli import (EXIT_INVARIANT, EXIT_OK, EXIT_UNSUPPORTED,
                              ExperimentConfig, load_config, main)

# alpha 0.5 and one charge a = 2 (beta 0.5), outside the disk it would carve
WORKED_EXAMPLE = str(Path(__file__).parents[1] / "examples"
                     / "worked_example.json")


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.alpha == 0.5 and cfg.gamma == 2.0
    assert cfg.charges == ((0.3 + 0.0j, 0.5),)


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1.0, "gamma": 3.0,
                                "charges": [{"re": 0.1, "im": 0.2,
                                             "beta": 0.4}]}))
    cfg = load_config(str(path))
    assert cfg.alpha == 1.0
    assert cfg.charges == ((0.1 + 0.2j, 0.4),)


def test_load_config_honours_an_empty_charge_list(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"charges": []}))
    assert load_config(str(path)).potential().nu == EMPTY_MEASURE
    path.write_text(json.dumps({"alpha": 1.0}))
    assert load_config(str(path)).charges == ((0.3 + 0.0j, 0.5),)


def test_empty_charge_list_is_the_pure_gaussian(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"charges": []}))
    base = ["--config", str(cfg), "--out", str(tmp_path)]
    assert main(base + ["--degree", "5", "zeros"]) == EXIT_OK
    rows = (tmp_path / "zeros_n5.csv").read_text().splitlines()
    assert rows == ["re,im"] + ["0.0,0.0"] * 5
    capsys.readouterr()
    assert main(base + ["trajectory"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("trajectory: 0 curves")


def test_load_config_rejects_N_and_gamma(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 10, "gamma": 2.0}))
    with pytest.raises(ValueError):
        load_config(str(path))


def test_potential_ties_N_to_degree():
    cfg = ExperimentConfig()
    assert cfg.potential(n=25).N == 50.0


def test_support_command(tmp_path):
    rc = main(["--out", str(tmp_path), "support"])
    assert rc == EXIT_OK
    geom = json.loads((tmp_path / "geometry.json").read_text())
    assert geom["kind"] == "disk_with_cavities"
    assert (tmp_path / "boundary.csv").exists()
    assert (tmp_path / "support.svg").exists()


def test_support_exterior(tmp_path):
    rc = main(["--config", WORKED_EXAMPLE, "--out", str(tmp_path), "support"])
    assert rc == EXIT_OK
    geom = json.loads((tmp_path / "geometry.json").read_text())
    assert geom["kind"] == "exterior_map"


def test_trajectory_exterior(tmp_path):
    rc = main(["--config", WORKED_EXAMPLE, "--out", str(tmp_path),
               "trajectory"])
    assert rc == EXIT_OK
    rows = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert rows[0] == "trajectory,end_tag,x,y"
    # 2 curves joining the branch points, each traced once, and 2 exit rays
    assert {r.split(",")[0] for r in rows[1:]} == {str(i) for i in range(4)}
    assert (tmp_path / "trajectories.svg").exists()


def test_replot_draws_each_trajectory_apart(tmp_path):
    # one polyline per trajectory id, no chords between the curves
    base = ["--config", WORKED_EXAMPLE, "--out", str(tmp_path)]
    for command in ("support", "trajectory", "replot"):
        assert main(base + [command]) == EXIT_OK
    assert (tmp_path / "replot.svg").read_text().count("<polyline") == 4


def test_replot_after_sweep(tmp_path, capsys):
    # the sweep leaves the geometry.json that replot reads; a directory
    # without one exits 3 with one stderr line
    base = ["--out", str(tmp_path)]
    assert main(base + ["--degree", "10,12", "sweep"]) == EXIT_OK
    assert main(base + ["replot"]) == EXIT_OK
    svg = (tmp_path / "replot.svg").read_text()
    # the default cavity's 2 loops, and the zeros of both degrees
    assert svg.count("<polyline") == 2
    assert svg.count('fill="blue"') == 22
    capsys.readouterr()
    (tmp_path / "geometry.json").unlink()
    assert main(base + ["replot"]) == EXIT_UNSUPPORTED
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "geometry.json" in err


def _config(tmp_path, charges):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"charges": [
        {"re": a.real, "im": a.imag, "beta": b} for a, b in charges]}))
    return ["--config", str(cfg), "--out", str(tmp_path)]


def test_trajectory_of_two_cavities_exit_code(tmp_path, capsys):
    # no jump field covers several cavities: exit 3 with one line
    rc = main(_config(tmp_path, [(0.5, 0.1), (-0.5, 0.1)]) + ["trajectory"])
    assert rc == EXIT_UNSUPPORTED
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_two_cavities_run_without_trajectories(tmp_path, capsys):
    # pipeline and verify run their other stages on such a support
    base = _config(tmp_path, [(0.5, 0.1), (-0.3 + 0.4j, 0.15)])
    for command in ("pipeline", "verify"):
        assert main(base + ["--quick", command]) == EXIT_OK
    assert "trajectory residual" not in capsys.readouterr().out


def test_cavity_centred_at_zero_has_no_trajectories(tmp_path, capsys,
                                                    monkeypatch):
    # dS = (R^2 - r^2)/z has no zeros: nothing is traced
    traced = []
    monkeypatch.setattr(schwarz, "_trace", lambda *a: traced.append(a))
    base = _config(tmp_path, [(0.0, 0.5)])
    assert main(base + ["trajectory"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("trajectory: 0 curves")
    assert main(base + ["--quick", "verify"]) == EXIT_OK
    assert traced == []


def test_verify_checks_exterior_trajectories(tmp_path, capsys):
    base = _config(tmp_path, [(2.0, 0.5)])
    assert main(base + ["--quick", "verify"]) == EXIT_OK
    assert "  [PASS] trajectory residual" in capsys.readouterr().out


def test_curves_stopped_at_maxsteps_fail(tmp_path, monkeypatch, capsys):
    # a curve that ends 'maxsteps' was stopped early by the tracer: with
    # a step limit of 50 every curve of the worked example does, and
    # trajectory and verify's trajectory check fail, naming the count
    monkeypatch.setattr(schwarz, "_MAX_STEPS", 50)
    base = ["--config", WORKED_EXAMPLE, "--out", str(tmp_path)]
    assert main(base + ["trajectory"]) == EXIT_INVARIANT
    line, = capsys.readouterr().out.splitlines()
    n = int(line.split()[1])
    assert line.startswith("trajectory: ")
    assert line.endswith(f", {n} stopped at maxsteps") and n > 0
    assert main(base + ["--quick", "verify"]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "  [FAIL] trajectory residual (max residual " in out
    assert f", {n} stopped at maxsteps)" in out
    failures = json.loads((tmp_path / "verify.json").read_text())["failures"]
    assert len(failures) == 1 and failures[0].startswith("trajectory")


def test_verify_checks_the_map_system(tmp_path, capsys):
    # criterion 02 on the worked example's exterior map: the largest of
    # its four equations' residuals, against 1e-10, recorded in verify.json
    rc = main(["--config", WORKED_EXAMPLE, "--out", str(tmp_path), "--quick",
               "verify"])
    assert rc == EXIT_OK
    res = json.loads((tmp_path / "verify.json").read_text())[
        "map_system_residual"]
    assert 0.0 <= res < 1e-10
    assert f"  [PASS] map-system residual ({res:.2e})" in \
        capsys.readouterr().out
    # a disk with a cavity has no map to check
    assert main(["--out", str(tmp_path), "--quick", "verify"]) == EXIT_OK
    assert "map_system_residual" not in json.loads(
        (tmp_path / "verify.json").read_text())
    assert "map-system" not in capsys.readouterr().out


@pytest.mark.parametrize("n", [20, 30])
def test_compare_prints_small_errors(tmp_path, capsys, n):
    # the errors at n = 20 and 30 are below 1e-4 and print in .2e, not as
    # 0.0000
    assert main(["--out", str(tmp_path), "--degree", str(n), "compare"]) \
        == EXIT_OK
    line = capsys.readouterr().out.strip()
    fields = dict(f.split("=") for f in line.split()[1:])
    assert fields["n"] == str(n)
    for key in ("sup_err", "mean_err"):
        assert f"{float(fields[key]):.2e}" == fields[key]
        assert 0.0 < float(fields[key]) < 1e-4


def test_pipeline_computes_its_zeros_once(tmp_path, monkeypatch):
    # --quick pipeline (n = 20) compares at min(30, n) = n on its own
    # zeros: build_orthopolys and compute_zeros run once at n = 20 (dbar
    # builds its own polynomials at n = 3)
    calls = []
    build, zeros = orthopoly.build_orthopolys, orthopoly.compute_zeros

    def build_spy(p, grid, n, *args, **kwargs):
        calls.append(("build", n))
        return build(p, grid, n, *args, **kwargs)

    def zeros_spy(ops, n, *args, **kwargs):
        calls.append(("zeros", n))
        return zeros(ops, n, *args, **kwargs)

    monkeypatch.setattr(orthopoly, "build_orthopolys", build_spy)
    monkeypatch.setattr(orthopoly, "compute_zeros", zeros_spy)
    assert main(["--out", str(tmp_path), "--quick", "pipeline"]) == EXIT_OK
    assert sorted(calls) == [("build", 3), ("build", 20), ("zeros", 20)]
    assert (tmp_path / "compare_n20.csv").exists()


def test_unsupported_configuration_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "gamma": 2.0,
                               "charges": [{"re": 0.3, "beta": 0.5},
                                           {"re": 3.0, "beta": 0.5}]}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "support"])
    assert rc == EXIT_UNSUPPORTED


@pytest.mark.parametrize("error", [orthopoly.NonConvergence,
                                   orthopoly.LossOfOrthogonality])
def test_orthopoly_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    # criterion 03's exterior charge at --degree 40 raises NonConvergence:
    # its zeros are too ill-conditioned for long double
    def fail(*args, **kwargs):
        raise error("zero residual 1.32e-02 above 1e-10 at n=40")

    monkeypatch.setattr(orthopoly, "compute_zeros", fail)
    rc = main(["--out", str(tmp_path), "--quick", "--degree", "6", "zeros"])
    err = capsys.readouterr().err
    assert rc == EXIT_INVARIANT
    assert err.startswith("invariant failed:") and err.count("\n") == 1


@pytest.mark.parametrize("flags,what", [
    # the exact class builds no grid; its 51 x 1,482-node basis (2.4 MB)
    # does not fit
    (["--degree", "50", "zeros"], "Arnoldi basis"),
    # dbar-check integrates on the 24 x 384 grid
    (["--degree", "6", "dbar-check"], "quadrature grid"),
    # the 800 x 800 Hessian and the eigensolver's copy (10.6 MB)
    (["--degree", "400", "fekete"], "Hessian"),
])
def test_over_memory_budget_exit_code(tmp_path, monkeypatch, capsys, flags,
                                      what):
    # refused before the grid, basis or Hessian is allocated, as
    # --degree 700 zeros (a 6.2 GB basis) is on an 8 GB machine; flags
    # end with the command
    monkeypatch.setattr(planarquad, "memory_budget", lambda: 1e6)
    rc = main(["--out", str(tmp_path), *flags])
    err = capsys.readouterr().err
    assert rc == EXIT_UNSUPPORTED
    assert err.startswith("out of memory:") and err.count("\n") == 1
    assert what in err


@pytest.mark.parametrize("command", ["zeros", "orthopoly", "compare",
                                     "sweep"])
def test_exact_class_builds_no_grid(tmp_path, monkeypatch, command):
    # the default charge at n = 10 has N*beta/2 = 5: the Arnoldi reads the
    # potential alone, and nothing integrates on a grid
    def fail(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(planarquad, "build_grid", fail)
    rc = main(["--out", str(tmp_path), "--degree", "10", command])
    assert rc == EXIT_OK


def test_memory_error_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(orthopoly, "compute_zeros", fail)
    rc = main(["--out", str(tmp_path), "--quick", "--degree", "6", "zeros"])
    err = capsys.readouterr().err
    assert rc == EXIT_UNSUPPORTED
    assert err.startswith("out of memory:") and err.count("\n") == 1


# each doc is refused before any command runs: support, sweep, and the
# extra commands that read the seed
@pytest.mark.parametrize("doc,extra", [
    ({"charges": [{"re": 0.2, "beta": -0.5}]}, []),
    ({"N": 3, "gamma": 2}, []),
    ({"charges": [{"im": 0.2, "beta": 0.5}]}, []),
    ({"alpha": -1}, []),
    ({"gamma": 0}, []),
    ([1, 2], []),
    ({"charges": [{"re": "0.2", "im": 0.1, "beta": 0.5}]}, []),
    ({"N": "ten"}, []),
    ({"gamma": "x"}, []),
    ({"gamma": math.nan}, []),
    ({"gamma": math.inf}, []),
    ({"alpha": "0.5"}, []),
    ({"alpha": True}, []),
    ({"seed": 1.5}, ["dbar-check"]),
    ({"seed": -1}, ["dbar-check", "fekete"]),
    ({"alhpa": 1.0}, []),
    ({"charges": [{"re": 0.3, "im ": 0.1, "beta": 0.5}]}, []),
])
def test_malformed_configuration_exit_code(tmp_path, capsys, doc, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in ("support", "sweep", *extra):
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "--degree",
                   "3", command])
        err = capsys.readouterr().err
        assert rc == EXIT_UNSUPPORTED
        assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("doc,key", [
    ({"gamma": math.nan}, "gamma"),
    ({"gamma": 0}, "gamma"),
    ({"alpha": 10 ** 400}, "alpha"),   # past the float range
    ({"alpha": "0.5"}, "alpha"),
    ({"alpha": True}, "alpha"),
    ({"N": None}, "N"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": "1"}, "seed"),
    ({"alhpa": 1.0}, "alhpa"),
    ({"charges": [{"re": 0.3, "im ": 0.1, "beta": 0.5}]}, "im "),
    ({"charges": [{"re": 0.3, "im": False, "beta": 0.5}]}, "im"),
    ({"charges": [{"re": 0.3, "beta": "0.5"}]}, "beta"),
    ({"charges": [{"beta": 0.5}]}, "re"),
])
def test_config_error_names_the_key(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    # the key as a word of the message, bare or quoted
    with pytest.raises(ValueError, match=rf"(^|[ ']){re.escape(key)}[ ']"):
        load_config(str(path)).potential()


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExperimentConfig().seed = 1


# a malformed --degree, a removed or unknown flag, and a missing or
# unknown command are usage errors: exit 3 with one stderr line, where
# argparse alone would print its usage and exit 2
@pytest.mark.parametrize("flags", [
    ["--degree", "-5", "zeros"],
    ["--degree", "0", "zeros"],
    ["--degree", "x", "zeros"],
    ["--degree", "10,20", "zeros"],  # a list is for sweep alone
    ["--degree", "10,x", "sweep"],
    ["--degree", "zeros"],           # no value
    # the config alone sets the problem: these flags are gone
    ["--quad", "24,384,1e-12", "zeros"],
    ["--gamma", "2", "zeros"],
    ["--seed", "1", "zeros"],
    ["--seed=1", "zeros"],
    ["--foo", "support"],
    [],                              # no command
    ["bogus"],
    ["zeros", "zeros"],              # a second command
    ["--degree", "", "sweep"],       # not the default list
])
def test_bad_numeric_flag_exit_code(tmp_path, capsys, flags):
    rc = main(["--out", str(tmp_path), "--quick", *flags])
    err = capsys.readouterr().err
    assert rc == EXIT_UNSUPPORTED
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("invalid configuration:")
    # a removed or unknown flag is named, not the value after it
    if flags[:1] and flags[0].split("=")[0] in ("--quad", "--gamma", "--seed",
                                                "--foo"):
        assert err.rstrip().endswith(f"unrecognized arguments: {flags[0]}")


def test_help_lists_only_what_to_run(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    flags = {w.strip("[],") for w in capsys.readouterr().out.split()
             if w.lstrip("[").startswith("--")}
    assert flags == {"--help", "--config", "--out", "--degree", "--quick"}


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_config_exit_code(tmp_path, capsys, name):
    # a missing file, and a directory in place of a file
    path = tmp_path / name
    for command in ("support", "sweep"):
        rc = main(["--config", str(path), "--out", str(tmp_path), command])
        err = capsys.readouterr().err
        assert rc == EXIT_UNSUPPORTED
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert str(path) in err


def test_zeros_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["--out", str(out), "--degree", "6", "zeros"])
        assert rc == EXIT_OK
    assert (a / "zeros_n6.csv").read_bytes() == (b / "zeros_n6.csv").read_bytes()


def test_orthopoly_grid_resolves_degree(tmp_path):
    # the CLI builds no grid in the exact class; its norms are those on a
    # grid cut for the degree-60 moments, at r = 2.03 (for degree 0 the
    # cut was 1.3)
    rc = main(["--out", str(tmp_path), "--degree", "30", "orthopoly"])
    assert rc == EXIT_OK
    got = json.loads((tmp_path / "orthopolys.json").read_text())["norms"]
    p = ExperimentConfig().potential(n=30)
    grid = build_grid(p, orders=(24, 384), max_degree=60)
    ref = np.asarray(build_orthopolys(p, grid, 30).norms, dtype=float)
    assert np.max(np.abs(np.asarray(got) / ref - 1.0)) < 1e-10


def test_verify_quick(tmp_path):
    rc = main(["--out", str(tmp_path), "--quick", "verify"])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["passed"]


def test_verify_records_the_equilibrium_report(tmp_path, capsys):
    # verify.json holds the whole report of the worked example's check,
    # which streams every node of its 150 x 150 mesh
    rc = main(["--config", WORKED_EXAMPLE, "--out", str(tmp_path), "verify"])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "verify.json").read_text())["equilibrium"]
    assert rep["n_on"] + rep["n_off"] == 150**2
    assert rep["passed"] and rep["tol_on"] == 1e-8
    assert rep["max_dev_on"] < 1e-14 and rep["min_margin_off"] > 0.0
    line, = (s for s in capsys.readouterr().out.splitlines()
             if "equilibrium conditions" in s)
    assert "max_dev_on" in line and "min_margin_off" in line


def test_verify_gram_failure_exit_code(tmp_path, monkeypatch, capsys):
    # the Arnoldi raises above GRAM_TOL, so verify fails through main's
    # handler: exit 2 with one line
    monkeypatch.setattr(orthopoly, "GRAM_TOL", 0.0)
    rc = main(["--out", str(tmp_path), "--quick", "verify"])
    err = capsys.readouterr().err
    assert rc == EXIT_INVARIANT
    assert err.startswith("invariant failed: Gram residual")
    assert err.count("\n") == 1


@pytest.mark.parametrize("converged, code", [(True, EXIT_OK),
                                             (False, EXIT_INVARIANT)])
def test_fekete_exit_code_follows_convergence(tmp_path, monkeypatch, capsys,
                                              converged, code):
    def fake_minimize(n, p, seed=0, n_starts=1):
        pts = 0.5 * np.exp(2j * np.pi * np.arange(n) / n)
        return fekete.FeketeConfig(n=n, points=pts, energy=1.0,
                                   grad_norm=1e-3, converged=converged,
                                   seed=seed)

    monkeypatch.setattr(fekete, "minimize", fake_minimize)
    rc = main(["--out", str(tmp_path), "--degree", "10", "--quick", "fekete"])
    assert rc == code
    assert ("not converged" in capsys.readouterr().out) is not converged
    rep = json.loads((tmp_path / "fekete_n10.json").read_text())
    assert rep["converged"] is converged


def test_dbar_check_passes(tmp_path):
    rc = main(["--out", str(tmp_path), "--quick", "--degree", "3",
               "dbar-check"])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "dbar_k3.json").read_text())
    assert abs(rep["slopes"]["Y22_dev"] + 1.0) < 0.2


@pytest.mark.parametrize("entry, value", [("slope_Y22_dev", -0.5),
                                          ("slope_Y21_ratio", -1.5),
                                          ("normalization_deviation", 1e-6)])
def test_dbar_check_judges_criteria_07_and_08(tmp_path, monkeypatch, entry,
                                              value):
    # each condition of criteria 07 and 08 alone fails the check
    asym, uniq = dbar.asymptotic_normalization, dbar.uniqueness_crosscheck
    if entry.startswith("slope"):
        monkeypatch.setattr(dbar, "asymptotic_normalization", lambda *a:
                            dataclasses.replace(asym(*a), **{entry: value}))
    else:
        monkeypatch.setattr(dbar, "uniqueness_crosscheck", lambda *a:
                            {**uniq(*a), entry: value})
    rc = main(["--out", str(tmp_path), "--quick", "--degree", "3",
               "dbar-check"])
    assert rc == EXIT_INVARIANT


@pytest.mark.parametrize("charges, rc", [
    ([], EXIT_OK),                                        # no cavity
    ([{"re": 0.0, "beta": 0.5}], EXIT_OK),                # centred cavity
    ([{"re": 0.5, "beta": 0.1}, {"re": -0.5, "beta": 0.1}],
     EXIT_UNSUPPORTED),                                   # two cavities
])
def test_zero_attractor_sweep_without_trajectories(tmp_path, capsys, charges,
                                                   rc):
    # a support with no trajectories gets nan distances; one whose
    # trajectories are not covered exits 3 with one stderr line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"charges": charges}))
    out = tmp_path / "sweep"
    assert main(["--config", str(cfg), "--out", str(out), "--degree", "4,5",
                 "sweep"]) == rc
    err = capsys.readouterr().err
    if rc == EXIT_OK:
        assert err == ""
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2:4] for r in rows] == [["nan", "nan"]] * 2
        assert (out / "zeros_n5.csv").exists()
    else:
        assert err.count("\n") == 1
        assert err.startswith("unsupported configuration:")


_NUMERIC_PATHS = """
import json, sys
import numpy as np
import chargedgauss.cli
from chargedgauss import (PerturbedPotential, PointChargeMeasure, build_grid,
                          build_orthopolys, cauchy_transform, classify_support,
                          compute_zeros, verify_equilibrium)
p = PerturbedPotential(alpha=1.0, nu=PointChargeMeasure(((0.3, 0.5),)), N=20.0)
grid = build_grid(p, orders=(16, 64), max_degree=10)
compute_zeros(build_orthopolys(p, grid, 10), 10)
cauchy_transform(grid, np.ones(grid.nodes.size), np.array([0.5, 3.0]))
q = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)))
assert verify_equilibrium(classify_support(q), q, {"n": 40}).passed
print(json.dumps(sorted(sys.modules)))
"""


_POLYNOMIAL_FREE_PATHS = """
import json, sys
import chargedgauss.cli
from chargedgauss import (PerturbedPotential, PointChargeMeasure,
                          build_orthopolys, classify_support, compute_zeros,
                          verify_equilibrium)
from chargedgauss.schwarz import boundary_curve, support_trajectories
for a in (2.0, 0.3):   # an exterior map and a disk with one cavity
    q = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((a, 0.5),)),
                           N=20.0)
    geom = classify_support(q)
    if a == 2.0:
        boundary_curve(geom)
    assert support_trajectories(geom)[1]
    assert verify_equilibrium(geom, q, {"n": 40}).passed
# the exact class (N beta / 2 = 5): zeros without a grid
compute_zeros(build_orthopolys(q, None, 10), 10)
print(json.dumps(sorted(sys.modules)))
"""


def test_supports_trajectories_and_zeros_load_no_numpy_polynomial():
    # the map cubic and the cavity field's quadratic are solved by
    # np.roots; only cauchy_transform imports numpy.polynomial
    src = str(Path(dbar.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _POLYNOMIAL_FREE_PATHS],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "chargedgauss.schwarz" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_numeric_paths_load_no_scipy_submodule():
    # scipy is the Fekete solver's alone: the CLI import and the grid,
    # zeros, Cauchy and exterior equilibrium paths run on numpy
    src = str(Path(dbar.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NUMERIC_PATHS], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert loaded.isdisjoint({"scipy.optimize", "scipy.spatial", "scipy.fft",
                              "scipy.linalg", "scipy.sparse"})
