"""Command-line experiment runner: support geometry, orthogonal
polynomials, zeros, d-bar checks, critical trajectories, Fekete points,
potential comparisons, the full pipeline, the sweep of zeros against the
critical trajectories over several degrees, and the replot of a finished
run's CSVs.

Outputs are JSON reports, CSV polylines/point sets, and standalone SVG
figures, which `replot` redraws from the CSVs.  Exit codes: 0 ok, 2
invariant failure, 3 a usage error, an unsupported or malformed
configuration, or one whose arrays would not fit in memory.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dbar, equilibrium, fekete, orthopoly, planarquad, schwarz
from .equilibrium import DiskWithCavities, ExteriorMap, UnsupportedGeometry
from .measures import PerturbedPotential, PointChargeMeasure

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_UNSUPPORTED = 3

SWEEP_DEGREES = "10,20,30,40,50"
# the angles of the boundary samples drawn and written to boundary.csv
_ANGLES = 2 * np.pi * np.arange(720) / 720


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 0.5
    gamma: float = 2.0
    charges: tuple = ((0.3 + 0.0j, 0.5),)
    seed: int = 0

    def potential(self, n: int = 1) -> PerturbedPotential:
        """The potential at degree n, N = gamma*n; its support (Q's) does
        not depend on n."""
        return PerturbedPotential(alpha=self.alpha,
                                  nu=PointChargeMeasure(self.charges),
                                  N=self.gamma * n, gamma=self.gamma)


def _read_json(path) -> object:
    """The JSON document at path; a ValueError names a file not read."""
    try:
        text = Path(path).read_text()
    except OSError as e:  # missing, unreadable or a directory
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    return json.loads(text)


def _check_keys(doc, known: str, required: str = "") -> None:
    """Refuse doc unless it is a JSON object with each required key and no
    key outside known (both space-separated), naming the key at fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{json.dumps(doc)}: expected a JSON object")
    if missing := sorted(set(required.split()) - doc.keys()):
        raise ValueError(f"{json.dumps(doc)}: no key {missing[0]!r}")
    if unknown := sorted(doc.keys() - set(known.split())):
        raise ValueError(f"unknown key {unknown[0]!r}")


def _number(doc: dict, key: str, default):
    """doc[key] as a float (default where doc has no key); a ValueError
    names the key unless it holds a finite JSON number."""
    if key not in doc:
        return default
    x = doc[key]   # an int past the float range fails the test, as nan does
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{key} {json.dumps(x)}: expected a finite number")
    return float(x)


def load_config(path: str | None) -> ExperimentConfig:
    """The config at path (the defaults if None), each value checked as
    its JSON type; a ValueError names the key at fault."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    doc = _read_json(path)
    _check_keys(doc, "alpha gamma charges seed")
    if not isinstance(doc.get("charges", []), list):
        raise ValueError("charges: expected a list")
    for c in doc.get("charges", []):
        _check_keys(c, "re im beta", "re beta")
    seed = doc.get("seed", cfg.seed)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed {json.dumps(seed)}: expected a nonnegative "
                         f"integer")
    return ExperimentConfig(
        alpha=_number(doc, "alpha", cfg.alpha),
        gamma=_number(doc, "gamma", cfg.gamma),
        # an explicit empty list is the pure Gaussian
        charges=tuple((complex(_number(c, "re", 0.0), _number(c, "im", 0.0)),
                       _number(c, "beta", 0.0)) for c in doc["charges"])
        if "charges" in doc else cfg.charges, seed=seed)


# ---------------------------------------------------------------- output

def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _csv_rows(path: Path) -> list:
    """The rows of a CSV written by write_csv, without its header."""
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _points(rows) -> np.ndarray:
    """The points whose x and y are the last two columns of rows."""
    return np.array([float(r[-2]) + 1j * float(r[-1]) for r in rows])


def _write_zeros(out: Path, n: int, zs):
    write_csv(out / f"zeros_n{n}.csv", ["re", "im"],
              [(z.real, z.imag) for z in zs.zeros])


def _write_trajectories(path: Path, trajs):
    write_csv(path, ["trajectory", "end_tag", "x", "y"],
              [(i, t.end_tag, z.real, z.imag)
               for i, t in enumerate(trajs) for z in t.points])


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, default=_json_default) + "\n")


def _equilibrium_dict(rep: equilibrium.EquilibriumReport) -> dict:
    return {**asdict(rep), "passed": rep.passed}


def _json_default(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


class SvgCanvas:
    """Minimal SVG writer: a 640 x 640 picture of the square [-lim, lim]^2,
    y up."""

    def __init__(self, lim):
        self.lim, self.sc = lim, 320.0 / lim
        self.parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
                      'height="640" viewBox="0 0 640 640">',
                      '<rect width="640" height="640" fill="white"/>']

    def _xy(self, z):
        return ((z.real + self.lim) * self.sc, (self.lim - z.imag) * self.sc)

    def polyline(self, zs, color="black", fill="none", close=False):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(self._xy, zs))
        tag = "polygon" if close else "polyline"
        self.parts.append(f'<{tag} points="{pts}" stroke="{color}" '
                          f'stroke-width="1.5" fill="{fill}"/>')

    def dots(self, zs, color):
        for z in zs:
            x, y = self._xy(z)
            self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                              f'fill="{color}"/>')

    def save(self, path: Path):
        Path(path).write_text("\n".join(self.parts) + "\n</svg>\n")


def _support_svg(geom, extras, path: Path):
    """The support, its cavities white, under the layers of extras."""
    cv = SvgCanvas(1.3 * geom.extent())
    for i, (_, b) in enumerate(geom.outline(_ANGLES)):
        cv.polyline(b, close=True, fill="white" if i else "#cfe0f5")
    for kind, data, color in extras:
        if kind == "dots":
            cv.dots(data, color=color)
        else:
            cv.polyline(data, color=color)
    cv.save(path)


# -------------------------------------------------------------- commands

def _geometry_dict(geom):
    if isinstance(geom, DiskWithCavities):
        return {"kind": "disk_with_cavities",
                "outer_radius": geom.outer_radius,
                "cavities": [{"center": c, "radius": r}
                             for c, r in geom.cavities],
                "area": geom.area()}
    return {"kind": "exterior_map", "rho": geom.rho, "u": geom.u,
            "v": geom.v, "A": geom.A, "area": geom.area()}


def _complex(x) -> complex:
    """A number as _json_default wrote it."""
    return complex(x["re"], x["im"]) if isinstance(x, dict) else complex(x)


def _load_geometry(path: Path):
    """The support that _geometry_dict wrote to path."""
    d = _read_json(path)
    try:
        if d["kind"] == "disk_with_cavities":
            return DiskWithCavities(d["outer_radius"], tuple(
                (_complex(c["center"]), c["radius"]) for c in d["cavities"]))
        return ExteriorMap(d["rho"], *(_complex(d[k]) for k in "uvA"))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path} holds no geometry: {e}") from None


def cmd_support(cfg: ExperimentConfig, out: Path, args) -> int:
    geom = equilibrium.classify_support(cfg.potential())
    write_json(out / "geometry.json", _geometry_dict(geom))
    rows = [(name, t, z.real, z.imag) for name, zs in geom.outline(_ANGLES)
            for t, z in zip(_ANGLES, zs)]
    write_csv(out / "boundary.csv", ["component", "theta", "x", "y"], rows)
    _support_svg(geom, [], out / "support.svg")
    print(f"support: {_geometry_dict(geom)['kind']} area={geom.area():.6f}")
    return EXIT_OK


def _build_polys(cfg: ExperimentConfig, n: int, integrate: bool):
    """(p, grid, polynomials to degree n).  grid, `build_grid`'s own for
    the degree-2n moments, is built only for a step that integrates on it
    (integrate), else it is None; the Arnoldi builds what it needs."""
    p = cfg.potential(n=n)
    grid = planarquad.build_grid(p, max_degree=2 * n) if integrate else None
    return p, grid, orthopoly.build_orthopolys(p, grid, n)


def cmd_orthopoly(cfg: ExperimentConfig, out: Path, args) -> int:
    n = args.degree or 20
    p, _, ops = _build_polys(cfg, n, False)
    write_json(out / "orthopolys.json",
               {"N": p.N, "gamma": p.gamma, **ops.to_json_dict()})
    print(f"orthopoly: n_max={n} gram_residual={ops.gram_residual:.2e}")
    return EXIT_OK


def cmd_zeros(cfg: ExperimentConfig, out: Path, args) -> int:
    n = args.degree or 20
    p, _, ops = _build_polys(cfg, n, False)
    zs = orthopoly.compute_zeros(ops, n)
    _write_zeros(out, n, zs)
    print(f"zeros: n={n} max_residual={zs.max_residual:.2e}")
    return EXIT_OK


def _moments_hold(uniq: dict) -> bool:
    """Both moment identities of dbar.uniqueness_crosscheck (criterion 08)."""
    return (uniq["max_orthogonality_residual"] < dbar.MOMENT_TOL
            and uniq["normalization_deviation"] < dbar.MOMENT_TOL)


def cmd_dbar_check(cfg: ExperimentConfig, out: Path, args) -> int:
    k = args.degree or 3
    p, grid, ops = _build_polys(cfg, max(k, 2), True)
    Y = dbar.assemble_Y(ops, p, grid, k)
    rng = np.random.default_rng(cfg.seed)
    z = complex(0.5 + 0.5j) + 0.1 * complex(*rng.standard_normal(2))
    order = dbar.fd_order(Y, p, z)
    R = equilibrium.outer_radius(p)
    radii = np.geomspace(2.5 * R, 20 * R, 8)
    asym = dbar.asymptotic_normalization(Y, radii)
    uniq = dbar.uniqueness_crosscheck(ops, p, grid, k)
    report = {"k": k, "fd": order,
              "slopes": {"Y12": asym.slope_Y12, "Y22_dev": asym.slope_Y22_dev,
                         "Y21_ratio": asym.slope_Y21_ratio,
                         "Y11_dev": asym.max_Y11_ratio_dev},
              "uniqueness": uniq}
    write_json(out / f"dbar_k{k}.json", report)
    # criteria 07 and 08
    ok = (order["order_12"] >= dbar.FD_ORDER_MIN
          and order["order_22"] >= dbar.FD_ORDER_MIN
          and abs(asym.slope_Y12 + (k + 1)) < dbar.SLOPE_TOL
          and abs(asym.slope_Y22_dev + 1.0) < dbar.SLOPE_TOL
          and abs(asym.slope_Y21_ratio + 1.0) < dbar.SLOPE_TOL
          and _moments_hold(uniq))
    print(f"dbar-check: k={k} orders=({order['order_12']:.2f},"
          f"{order['order_22']:.2f}) slopes Y12={asym.slope_Y12:.2f} "
          f"Y22_dev={asym.slope_Y22_dev:.3f} Y21={asym.slope_Y21_ratio:.3f} "
          f"normalization_dev={uniq['normalization_deviation']:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_INVARIANT


def _covered_trajectories(geom) -> list:
    """The support's critical trajectories, or none where they are not
    covered (several cavities): pipeline and verify run on without them."""
    try:
        return schwarz.support_trajectories(geom)[1]
    except UnsupportedGeometry:
        return []


def _trajectory_health(trajs):
    """(ok, summary) of the curves: ok if their largest residual is below
    TRAJECTORY_TOL and none ended 'maxsteps', stopped early by the tracer."""
    worst = max((t.max_residual for t in trajs), default=0.0)
    cut = sum(t.end_tag == "maxsteps" for t in trajs)
    return (worst < schwarz.TRAJECTORY_TOL and not cut,
            f"max residual {worst:.2e}, {cut} stopped at maxsteps")


def cmd_trajectory(cfg: ExperimentConfig, out: Path, args) -> int:
    geom = equilibrium.classify_support(cfg.potential())
    _, trajs = schwarz.support_trajectories(geom)
    _write_trajectories(out / "trajectories.csv", trajs)
    _support_svg(geom, [("line", t.points, "red") for t in trajs],
                 out / "trajectories.svg")
    ok, health = _trajectory_health(trajs)
    print(f"trajectory: {len(trajs)} curves, {health}")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_fekete(cfg: ExperimentConfig, out: Path, args) -> int:
    n = args.degree or 100
    p = cfg.potential(n=n)
    res = fekete.minimize(n, p, seed=cfg.seed,
                          n_starts=1 if args.quick else 5)
    write_csv(out / f"fekete_n{n}.csv", ["re", "im"],
              [(z.real, z.imag) for z in res.points])
    geom = equilibrium.classify_support(p)
    report = {"n": n, "energy": res.energy, "grad_norm": res.grad_norm,
              "min_eigenvalue": res.min_eigenvalue,
              "converged": res.converged, "seed": res.seed}
    if isinstance(geom, DiskWithCavities):
        report["discrepancy"] = fekete.discrepancy(res, geom)
    _support_svg(geom, [("dots", res.points, "blue")],
                 out / f"fekete_n{n}.svg")
    write_json(out / f"fekete_n{n}.json", report)
    status = "" if res.converged else " not converged"
    print(f"fekete: n={n} energy={res.energy:.6f} grad={res.grad_norm:.2e} "
          f"min_eigenvalue={res.min_eigenvalue:.3g}{status}")
    return EXIT_OK if res.converged else EXIT_INVARIANT


def cmd_compare(cfg: ExperimentConfig, out: Path, args, zs=None) -> int:
    """zs, if given, are the zeros of P_n at the degree n compared."""
    n = args.degree or 30
    if zs is None:
        _, _, ops = _build_polys(cfg, n, False)
        zs = orthopoly.compute_zeros(ops, n)
    p = cfg.potential(n=n)
    R = equilibrium.outer_radius(p)
    rr = np.linspace(1.5 * R, 3.0 * R, 40)
    tt = 2 * np.pi * np.arange(72) / 72
    zpts = (rr[:, None] * np.exp(1j * tt)[None, :]).ravel()
    rep = schwarz.external_potential_compare(zs, p, zpts)
    write_csv(out / f"compare_n{n}.csv", ["x", "y", "error"],
              [(z.real, z.imag, e) for z, e in zip(zpts, rep["errors"])])
    print(f"compare: n={n} sup_err={rep['sup_error']:.2e} "
          f"mean_err={rep['mean_error']:.2e}")
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig, out: Path, args) -> int:
    n = args.degree or (20 if args.quick else 50)
    rc = cmd_support(cfg, out, args)
    p, _, ops = _build_polys(cfg, n, False)
    zs = orthopoly.compute_zeros(ops, n)
    _write_zeros(out, n, zs)
    geom = equilibrium.classify_support(p)
    extras = [("dots", zs.zeros, "blue")]
    extras += [("line", t.points, "red") for t in _covered_trajectories(geom)]
    _support_svg(geom, extras, out / "overlay.svg")
    rep = equilibrium.verify_equilibrium(geom, p,
                                         {"n": 80 if args.quick else 200})
    write_json(out / "equilibrium_report.json", _equilibrium_dict(rep))
    rc2 = cmd_dbar_check(cfg, out, argparse.Namespace(degree=min(3, n)))
    rc3 = cmd_compare(cfg, out, argparse.Namespace(degree=min(30, n)),
                      zs if n <= 30 else None)
    print(f"pipeline: done (n={n}), equilibrium "
          f"{'PASS' if rep.passed else 'FAIL'}")
    codes = [rc, rc2, rc3, EXIT_OK if rep.passed else EXIT_INVARIANT]
    return max(codes)


def cmd_verify(cfg: ExperimentConfig, out: Path, args) -> int:
    """Fast invariant suite over the given configuration."""
    failures = []

    def check(name, ok):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    p = cfg.potential()
    geom = equilibrium.classify_support(p)
    rep = equilibrium.verify_equilibrium(
        geom, p, {"n": 60 if args.quick else 150})
    check(f"equilibrium conditions (max_dev_on {rep.max_dev_on:.3g}, "
          f"min_margin_off {rep.min_margin_off:.3g})", rep.passed)

    n = 8 if args.quick else 20
    # build_orthopolys and compute_zeros raise above GRAM_TOL and
    # ZERO_RESIDUAL_TOL, which main reports with exit 2
    p2, grid, ops = _build_polys(cfg, n, True)
    zs = orthopoly.compute_zeros(ops, n)
    rec = orthopoly.reconstruct_coeffs(zs)
    ref = np.asarray(ops.monic_coeffs[n], dtype=complex)
    check("zero product form",
          float(np.max(np.abs(rec - ref))) / max(np.max(np.abs(ref)), 1.0)
          < orthopoly.PRODUCT_FORM_TOL)
    uniq = dbar.uniqueness_crosscheck(ops, p2, grid, min(3, n))
    check("moment identities", _moments_hold(uniq))
    record = {"failures": failures, "equilibrium": _equilibrium_dict(rep)}
    if isinstance(geom, ExteriorMap):   # criterion 02, on Q's parameters
        q = equilibrium.scaled_potential(p)
        (a, beta), = q.nu.charges
        res = max(equilibrium.system_residuals(geom, q.alpha, beta, a))
        check(f"map-system residual ({res:.2e})", res < equilibrium.SYSTEM_TOL)
        record["map_system_residual"] = res
    trajs = _covered_trajectories(geom)
    if trajs:
        ok, health = _trajectory_health(trajs)
        check(f"trajectory residual ({health})", ok)
    write_json(out / "verify.json", {**record, "passed": not failures})
    print(f"verify: {'PASS' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_INVARIANT


def cmd_sweep(cfg: ExperimentConfig, out: Path, args) -> int:
    """Zeros of P_{n,N} (N = gamma*n) at each degree of the --degree list,
    and their distances to the support's critical trajectories: nan
    without trajectories, exit 3 (through main) where they are not
    covered."""
    geom = equilibrium.classify_support(cfg.potential())
    write_json(out / "geometry.json", _geometry_dict(geom))
    _, trajs = schwarz.support_trajectories(geom)
    _write_trajectories(out / "trajectories.csv", trajs)
    attractor = np.concatenate([np.empty(0, complex),
                                *(t.points for t in trajs)])
    rows = []
    for n in args.degree:
        t0 = time.perf_counter()
        p, _, ops = _build_polys(cfg, n, False)
        zs = orthopoly.compute_zeros(ops, n)
        d = (np.min(np.abs(zs.zeros[:, None] - attractor[None, :]), axis=1)
             if attractor.size else np.full(zs.zeros.size, np.nan))
        mean_d, max_d = float(np.mean(d)), float(np.max(d))
        secs = time.perf_counter() - t0
        rows.append((n, p.N, mean_d, max_d, secs))
        _write_zeros(out, n, zs)
        print(f"sweep: n={n} mean_dist={mean_d:.4f} max_dist={max_d:.4f} "
              f"({secs:.2f}s)")
    write_csv(out / "sweep.csv", ["n", "N", "mean_dist", "max_dist", "secs"],
              rows)
    extras = [("line", t.points, "red") for t in trajs]
    _support_svg(geom, extras + [("dots", zs.zeros, "blue")],
                 out / "overlay.svg")
    return EXIT_OK


def cmd_replot(cfg: ExperimentConfig, out: Path, args) -> int:
    """Redraw a finished run in out from its geometry.json and CSVs,
    recomputing nothing: each trajectory a red line, zeros blue and
    Fekete points green."""
    try:
        geom = _load_geometry(out / "geometry.json")
    except ValueError as e:
        print(f"invalid output directory: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    extras = []
    if (out / "trajectories.csv").exists():
        extras += [("line", _points(curve), "red") for _, curve in
                   itertools.groupby(_csv_rows(out / "trajectories.csv"),
                                     key=lambda r: r[0])]
    for pattern, color in (("zeros_n*.csv", "blue"),
                           ("fekete_n*.csv", "green")):
        extras += [("dots", _points(_csv_rows(path)), color)
                   for path in sorted(out.glob(pattern))]
    _support_svg(geom, extras, out / "replot.svg")
    print(f"replot: {len(extras)} layers in {out / 'replot.svg'}")
    return EXIT_OK


def _parse_degree(s):
    try:
        n = int(s)
    except ValueError:
        raise ValueError(f"--degree {s!r}: expected an integer") from None
    if n < 1:
        raise ValueError(f"degree {n} is below 1")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # main reports it: one line and exit 3
        raise ValueError(message)


def main(argv=None) -> int:
    flags = _Parser(add_help=False)
    flags.add_argument("--config", help="JSON config path")
    flags.add_argument("--out", default="out", help="output directory")
    # converted below: a list for sweep, one degree for the rest
    flags.add_argument("--degree", default=None,
                       help="degree n (or k); for sweep a comma-separated "
                            f"list, default {SWEEP_DEGREES}")
    flags.add_argument("--quick", action="store_true")
    ap = _Parser(
        prog="chargedgauss", parents=[flags],
        description="Equilibrium measures, planar orthogonal polynomials "
                    "and Schwarz-function trajectories for Gaussian weights "
                    "perturbed by point charges, as --config states them.")
    ap.add_argument("command", choices=["support", "orthopoly", "zeros",
                                        "dbar-check", "trajectory", "fekete",
                                        "compare", "verify", "pipeline",
                                        "sweep", "replot"])
    try:
        try:
            args = ap.parse_args(argv)
        except ValueError:
            # argparse takes the value after an unknown flag (--gamma 2)
            # for the command: name the flag instead
            if unknown := [a for a in flags.parse_known_args(argv)[1]
                           if a.startswith("-")]:
                raise ValueError("unrecognized arguments: "
                                 + " ".join(unknown)) from None
            raise
        cfg = load_config(args.config)
        cfg.potential()  # rejects nonpositive alpha, gamma or masses
        if args.command == "sweep":
            degrees = SWEEP_DEGREES if args.degree is None else args.degree
            args.degree = [_parse_degree(s) for s in degrees.split(",")]
        elif args.degree is not None:
            args.degree = _parse_degree(args.degree)
    except ValueError as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    handlers = {"support": cmd_support, "orthopoly": cmd_orthopoly,
                "zeros": cmd_zeros, "dbar-check": cmd_dbar_check,
                "trajectory": cmd_trajectory, "fekete": cmd_fekete,
                "compare": cmd_compare, "verify": cmd_verify,
                "pipeline": cmd_pipeline, "sweep": cmd_sweep,
                "replot": cmd_replot}
    try:
        return handlers[args.command](cfg, out, args)
    except (UnsupportedGeometry, equilibrium.NoRootError) as e:
        print(f"unsupported configuration: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (orthopoly.NonConvergence, orthopoly.LossOfOrthogonality) as e:
        print(f"invariant failed: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (planarquad.OverMemoryBudget, MemoryError) as e:
        print(f"out of memory: {str(e) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
