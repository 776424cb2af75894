#!/usr/bin/env python3
"""Minimize the weighted discrete Coulomb energy for several point counts
and report how closely the configurations track the equilibrium measure.

Writes fekete_n*.csv / .svg and a summary JSON per n.
"""

import argparse
import sys
from pathlib import Path

from chargedgauss.cli import (_support_svg, load_config, write_csv,
                              write_json)
from chargedgauss.equilibrium import DiskWithCavities, classify_support
from chargedgauss.fekete import discrepancy, minimize


def run(cfg, counts, seed, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for n in counts:
        p = cfg.potential(n=n)
        res = minimize(n, p, seed=seed, n_starts=3)
        write_csv(out / f"fekete_n{n}.csv", ["re", "im"],
                  [(z.real, z.imag) for z in res.points])
        report = {"n": n, "energy": res.energy, "grad_norm": res.grad_norm,
                  "min_eigenvalue": res.min_eigenvalue,
                  "converged": res.converged, "seed": res.seed}
        geom = classify_support(p)
        if isinstance(geom, DiskWithCavities):
            report["discrepancy"] = discrepancy(res, geom)
            _support_svg(geom, [("dots", res.points, "blue")],
                         out / f"fekete_n{n}.svg")
            print(f"n={n:4d}  energy {res.energy:.4f}  inside "
                  f"{report['discrepancy']['fraction_inside']:.3f}  "
                  f"annulus dev "
                  f"{report['discrepancy']['max_annulus_discrepancy']:.4f}")
        write_json(out / f"fekete_n{n}.json", report)
    print(f"fekete experiment: outputs in {out.resolve()}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default="out/fekete")
    ap.add_argument("--counts", default="50,100,200")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    counts = [int(x) for x in args.counts.split(",")]
    sys.exit(run(load_config(args.config), counts, args.seed,
                 Path(args.out)))
