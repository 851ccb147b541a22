#!/usr/bin/env python3
"""Run every exploratory comparison at desk scale and persist the fixtures.

These touch the open questions the library can only probe, never settle:
the Schur-level twist between closure slices and the quotient tables, the
superspace-coinvariant bigraded tables next to the assembled closure
slices, and the Grassmann quotient tables whose combinatorial description
is unknown.  Findings land in the fixtures directory as envelopes; exit
status is informational only.
"""

import argparse
import sys

from spanrep.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures-dir", default="fixtures")
    parser.add_argument("--twist-n", type=int, default=3,
                        help="largest n for the twist comparison (n = 5 takes under 1 s)")
    args = parser.parse_args()

    runs = []
    for n in range(2, args.twist_n + 1):
        runs.append(["explore", "--problem", "rw-twist", "--n", str(n)])
    runs.append(["explore", "--problem", "zabrocki-t0", "--n", "2"])
    runs.append(["explore", "--problem", "zabrocki-t0", "--n", "3"])
    runs.append(["explore", "--problem", "zabrocki-t0", "--n", "4"])
    runs.append(["explore", "--problem", "grassmann", "--d", "2", "--n", "2", "--k", "2"])
    runs.append(["explore", "--problem", "grassmann", "--d", "2", "--n", "2", "--k", "3"])
    # d = 3, and batch permutations with cycles longer than one
    runs.append(["explore", "--problem", "grassmann", "--d", "3", "--n", "2", "--k", "4"])
    runs.append(["explore", "--problem", "grassmann", "--d", "2", "--n", "4", "--k", "3"])

    worst = 0
    for argv in runs:
        print(f"== spanrep {' '.join(argv)}", file=sys.stderr)
        worst = max(worst, cli_main(argv + ["--fixtures-dir", args.fixtures_dir]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
