"""Benchmark of the vclab commands.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sat_pairs_n3 --seed 1 --seconds 36 --trace 0

Runs the named workload's ``vclab`` command in-process from ``src/`` for
the given number of seconds, checks its outputs, and prints the metrics;
the last line of standard output is one JSON object.  ``--trace 1`` runs
the traced variant that reports per-layer metrics instead.  See
``bench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "vclab" / "__init__.py").is_file():
        print(f"bench: no vclab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
