"""The benchmark's workloads: vclab command lines and their output checks.

Each workload is one ``vclab`` command with a fixed trial count; only the
master seed varies.  A check reads the data lines the command wrote (the
``#`` header lines are skipped, since they record the thread count) and the
exact counts the command made, and returns a list of problems, empty when
the outputs are correct.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from vclab.recursion import cover_count_exact

# Pairs workload: the SAT edge, the transition region and the deep-UNSAT
# point 3 * alpha*(rho=0.5) = 27.07 (p = 81 at n = 3) of criterion 08.
PAIR_RHOS = (0.2, 0.5, 0.8)
PAIR_ALPHAS = (1, 2, 3, 4, 5, 6, 8, 11, 27)
PAIR_SAT_ALPHA, PAIR_UNSAT_ALPHA = 1, 27

# Margin workload: p = 1..12 at n = 3 (the load range of the ROADMAP table).
MARGIN_GRID = "0.333:4:0.333"
MARGIN_POINTS = 12

# Counting workload: n = 5 pairs, p = 6..12 (sigma backend, rank > 3).
COUNT_N = 5
COUNT_ALPHAS = ("1.2", "1.4", "1.6", "1.8", "2", "2.2", "2.4")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    trials: int  # Monte Carlo trials per grid point
    points: int  # grid points, so one command makes points * trials decisions
    outputs: tuple[str, ...]  # files the command writes, relative to its directory
    command: Callable[[int, str, int, int], list[str]]  # (seed, out_dir, threads, trials)
    # (data lines by file, stdout, trials, exact counts in call order) -> problems
    check: Callable[[dict, str, int, list[int]], list[str]]

    def argv(self, seed: int, out_dir: str, threads: int | None = None,
             trials: int | None = None) -> list[str]:
        return self.command(
            seed, out_dir, self.threads if threads is None else threads,
            self.trials if trials is None else trials,
        )

    def decisions(self, trials: int | None = None) -> int:
        return self.points * (self.trials if trials is None else trials)


def read_outputs(workload: Workload, out_dir: str) -> dict[str, list[str]]:
    """Data lines of every output file; a missing file maps to None."""
    data = {}
    for name in workload.outputs:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            data[name] = None
            continue
        with open(path) as fh:
            data[name] = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return data


def _rows(lines: list[str]) -> list[dict[str, str]]:
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _missing(data: dict, expected_rows: dict[str, int]) -> list[str]:
    problems = []
    for name, rows in expected_rows.items():
        lines = data.get(name)
        if lines is None:
            problems.append(f"{name} was not written")
        elif len(lines) - 1 != rows:
            problems.append(f"{name} has {len(lines) - 1} data rows, expected {rows}")
    return problems


# ---------------------------------------------------------------- pairs


def _pairs_command(seed, out_dir, threads, trials):
    return [
        "phase-diagram",
        "--rho", ",".join(str(r) for r in PAIR_RHOS),
        "--alpha", ",".join(str(a) for a in PAIR_ALPHAS),
        "--trials", str(trials),
        "--threads", str(threads),
        "--seed", str(seed),
        "--out", os.path.join(out_dir, "phase"),
    ]


def _pairs_check(data, stdout, trials, counts):
    nr = len(PAIR_RHOS)
    problems = _missing(data, {
        "phase.combinatorial.csv": nr,
        "phase.annealed.csv": nr,
        "phase.crossing.csv": 2 * nr,
        "phase.mc.csv": nr * len(PAIR_ALPHAS),
    })
    if problems:
        return problems
    for row in _rows(data["phase.mc.csv"]):
        alpha, frac = float(row["alpha"]), float(row["sat_fraction"])
        if alpha == PAIR_SAT_ALPHA and frac < 0.95:
            problems.append(f"rho={row['rho']}: SAT fraction {frac} < 0.95 at alpha=1")
        if alpha == PAIR_UNSAT_ALPHA and frac > 0.05:
            problems.append(f"rho={row['rho']}: SAT fraction {frac} > 0.05 at alpha=27")
    for row in _rows(data["phase.crossing.csv"]):
        if not math.isfinite(float(row["alpha_cross"])):
            problems.append(f"crossing load {row['alpha_cross']} is not finite")
    return problems


# ---------------------------------------------------------------- margin


def _margin_command(seed, out_dir, threads, trials):
    return [
        "mc", "--mode", "margin", "--kappa", "0.5", "--n", "3",
        "--alpha", MARGIN_GRID,
        "--trials", str(trials),
        "--threads", str(threads),
        "--seed", str(seed),
        "--out", os.path.join(out_dir, "margin.csv"),
    ]


def _margin_check(data, stdout, trials, counts):
    problems = _missing(data, {"margin.csv": MARGIN_POINTS})
    if problems:
        return problems
    rows = _rows(data["margin.csv"])
    if [int(r["p"]) for r in rows] != list(range(1, MARGIN_POINTS + 1)):
        problems.append("margin scan does not cover p = 1..12")
    fracs = [float(r["sat_fraction"]) for r in rows]
    if not (fracs[0] >= 0.5 > fracs[-1]):
        problems.append(f"scan does not bracket the half-SAT level: {fracs[0]}..{fracs[-1]}")
    fits = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not fits or not math.isfinite(fits[-1].get("alpha_star", math.nan)):
        problems.append("mc printed no half-SAT crossover")
    return problems


# ---------------------------------------------------------------- counts


def _count_command(seed, out_dir, threads, trials):
    return [
        "count", "--k", "2", "--rho", "0.5", "--n", str(COUNT_N),
        "--alpha", ",".join(COUNT_ALPHAS),
        "--trials", str(trials),
        "--threads", str(threads),
        "--seed", str(seed),
        "--out", os.path.join(out_dir, "count.csv"),
    ]


def count_loads() -> list[int]:
    return [int(round(float(a) * COUNT_N)) for a in COUNT_ALPHAS]


def _count_check(data, stdout, trials, counts):
    """Every exact count even and within Cover's bound; the CSV holds their means."""
    problems = _missing(data, {"count.csv": 2 * len(COUNT_ALPHAS)})
    if problems:
        return problems
    mc = [r for r in _rows(data["count.csv"]) if r["source"] == "montecarlo"]
    if [int(r["p"]) for r in mc] != count_loads():
        return ["Monte Carlo rows do not cover the load grid"]
    problems = count_problems(counts, trials)
    if problems:
        return problems
    for j, row in enumerate(mc):
        mean = sum(counts[j * trials:(j + 1) * trials]) / trials
        expected = math.log(mean) if mean > 0 else -math.inf
        logged = float(row["log_count"])
        if not (logged == expected or math.isclose(logged, expected, rel_tol=1e-12)):
            problems.append(f"p={row['p']}: CSV log_count {logged} is not log of the mean count")
    return problems


def count_problems(counts: list[int], trials: int) -> list[str]:
    """Per-trial check of the exact counts, in call order (load-major)."""
    loads = count_loads()
    if len(counts) != len(loads) * trials:
        return [f"{len(counts)} exact counts, expected {len(loads) * trials}"]
    problems = []
    for i, count in enumerate(counts):
        p = loads[i // trials]
        if count % 2 or count > cover_count_exact(COUNT_N, p):
            problems.append(f"p={p}: count {count} is odd or above Cover's bound")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sat_pairs_n3",
            why="phase-diagram, all layers, pairs at n=3 from the SAT edge to deep UNSAT "
                "(p=81); cell enumeration with early exit, sampling, one pool per grid point",
            threads=2,
            trials=3,
            points=len(PAIR_RHOS) * len(PAIR_ALPHAS),
            outputs=tuple(f"phase.{layer}.csv"
                          for layer in ("combinatorial", "annealed", "crossing", "mc")),
            command=_pairs_command,
            check=_pairs_check,
        ),
        Workload(
            name="sat_margin_n3",
            why="mc margin mode at kappa=0.5, n=3, p=1..12; every candidate cell is "
                "checked by max_margin, so Wolfe min-norm-point solves dominate",
            threads=1,
            trials=16,
            points=MARGIN_POINTS,
            outputs=("margin.csv",),
            command=_margin_command,
            check=_margin_check,
        ),
        Workload(
            name="count_pairs_n5",
            why="count of pairs at n=5, p=6..12: full exact counts through the sigma "
                "backend (rank > 3), a recursion table and a CSV",
            threads=1,
            trials=2,
            points=len(COUNT_ALPHAS),
            outputs=("count.csv",),
            command=_count_command,
            check=_count_check,
        ),
    )
}
