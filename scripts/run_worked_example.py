#!/usr/bin/env python3
"""Full run of the non-contained-charge example (alpha=0.5, beta=0.5, a=2).

Writes the configuration (config.json), the support geometry, the
critical trajectories of the Schwarz function, and the equilibrium
verification report into OUT (default out/worked_example).
"""

import argparse
import json
import sys
from pathlib import Path

from chargedgauss.cli import main as cli_main

CONFIG = {"alpha": 0.5, "gamma": 2.0,
          "charges": [{"re": 2.0, "im": 0.0, "beta": 0.5}]}


def run(out: str, quick: bool) -> int:
    cfg = Path(out) / "config.json"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(CONFIG))
    base = ["--config", str(cfg), "--out", out]
    if quick:
        base.append("--quick")
    rc = 0
    for cmd in (["support"], ["trajectory"], ["verify"]):
        rc = max(rc, cli_main(base + cmd))
    print(f"worked example: outputs in {Path(out).resolve()}")
    return rc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/worked_example")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    sys.exit(run(args.out, args.quick))
