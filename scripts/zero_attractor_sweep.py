#!/usr/bin/env python3
"""Sweep the polynomial degree and measure how the zeros of P_{n,N}
(N = gamma*n) approach the critical trajectories of the support's jump
field.

Writes zeros_n*.csv, attractor.csv, sweep.csv (mean/max distances per n)
and an overlay SVG for the largest degree.  A support without
trajectories (no cavity, or a cavity centred at 0) gets nan distances; one
whose trajectories are not covered (several cavities) exits 3 with one
line on stderr, as `chargedgauss trajectory` does.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from chargedgauss.cli import (EXIT_UNSUPPORTED, ExperimentConfig,
                              _support_svg, load_config, write_csv)
from chargedgauss.equilibrium import (NoRootError, UnsupportedGeometry,
                                      classify_support)
from chargedgauss.orthopoly import build_orthopolys, compute_zeros
from chargedgauss.planarquad import build_grid
from chargedgauss.schwarz import support_trajectories


def run(cfg: ExperimentConfig, degrees, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.potential(n=degrees[0])
    try:
        geom = classify_support(base)
        _, trajs = support_trajectories(geom)
    except (UnsupportedGeometry, NoRootError) as e:
        print(f"unsupported configuration: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    attractor = np.concatenate([np.empty(0, complex),
                                *(t.points for t in trajs)])
    write_csv(out / "attractor.csv", ["x", "y"],
              [(z.real, z.imag) for z in attractor])

    rows = []
    last = None
    for n in degrees:
        t0 = time.perf_counter()
        p = cfg.potential(n=n)
        # the exact class's Arnoldi reads p alone; other weights a grid
        grid = (None if p.angular_degree() is not None
                else build_grid(p, orders=(24, 256), max_degree=2 * n))
        zs = compute_zeros(build_orthopolys(p, grid, n), n)
        d = (np.min(np.abs(zs.zeros[:, None] - attractor[None, :]), axis=1)
             if attractor.size else np.full(zs.zeros.size, np.nan))
        rows.append((n, p.N, float(np.mean(d)), float(np.max(d)),
                     time.perf_counter() - t0))
        write_csv(out / f"zeros_n{n}.csv", ["re", "im"],
                  [(z.real, z.imag) for z in zs.zeros])
        print(f"n={n:3d}  mean dist {rows[-1][2]:.4f}  "
              f"max dist {rows[-1][3]:.4f}  ({rows[-1][4]:.1f}s)")
        last = zs
    write_csv(out / "sweep.csv", ["n", "N", "mean_dist", "max_dist", "secs"],
              rows)
    extras = [("line", t.points, "red") for t in trajs]
    extras.append(("dots", last.zeros, "blue"))
    _support_svg(geom, extras, out / "overlay.svg")
    print(f"sweep: outputs in {out.resolve()}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default="out/attractor_sweep")
    ap.add_argument("--degrees", default="10,20,30,40,50")
    args = ap.parse_args()
    degrees = [int(x) for x in args.degrees.split(",")]
    sys.exit(run(load_config(args.config), degrees, Path(args.out)))
