"""Scan random graphs for alpha_k >= ceil(Z_{k+1}) violations over a (k, n) grid.

The bound is proved for k <= 2; this looks for counterexamples above that.
Usage: python3 scripts/conjecture_scan.py [--kmin K] [--kmax K] [--nmax N] [--trials T] [--seed S]
Findings are printed as JSON lines, one per (k, n) cell.  Exit code 0 when
the scan ran, whatever it found.  An --nmax above the exact oracle's guard
(40 vertices at k = 0, 20 at k >= 1) is refused before the first cell with
one line on stderr and exit code 1; a cell that fails anyway stops the scan
with the `conjecture` command's exit code.
"""
import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from zetakit.cli import run_command  # noqa: E402
from zetakit.oracle import _ALPHA0_LIMIT, _ALPHAK_LIMIT  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmin", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--nmax", type=int, default=14)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for k in range(args.kmin, args.kmax + 1):
        cap = _ALPHA0_LIMIT if k == 0 else _ALPHAK_LIMIT
        if args.nmax > cap:
            print(f"error: --nmax {args.nmax} is above the exact oracle's limit of "
                  f"{cap} vertices at k={k}", file=sys.stderr)
            return 1

    worst = None
    for k in range(args.kmin, args.kmax + 1):
        for n in range(k + 2, args.nmax + 1):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = run_command(["conjecture", "--k", str(k), "--n", str(n),
                                  "--trials", str(args.trials),
                                  "--seed", str(args.seed)])
            if rc != 0:
                print(f"scan failed at k={k} n={n}: rc={rc}", file=sys.stderr)
                return rc
            cell = json.loads(buf.getvalue())
            slack = cell["min_slack"]
            line = {"k": k, "n": n, "trials": cell["trials"],
                    "violations": len(cell["violations"]),
                    "min_slack": None if slack is None else slack["exact"]}
            print(json.dumps(line))
            if cell["violations"]:
                for v in cell["violations"]:
                    print(json.dumps({"violation": v}))
            if slack is not None and (worst is None
                                      or slack["approx"] < worst["approx"]):
                worst = slack
    print(json.dumps({"worst_slack": None if worst is None else worst["exact"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
