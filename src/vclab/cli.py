"""Command-line front end.

Subcommands: ``count`` (entropy curves), ``phase-diagram`` (threshold lines
plus finite-size and Monte Carlo layers), ``transition`` (single critical
load as JSON), ``mc`` (SAT-fraction / mean-count scans), ``fss``
(finite-size-scaling collapse), ``psi`` (agreement-probability estimates).

Every option is one row of `OPTIONS`, keyed by its config name: its flag,
the kind of its value, the values it allows and its help text.  `COMMANDS`
lists the options of each subcommand with their defaults.  The parser, the
defaults, the conversion of flag and config-file values and the range
checks are generated from these two tables, so ``--help`` shows every
default and rule.  A config file may also carry options another command
takes (and a full structure ``spec`` object); they are kept and converted
to their kind.  Any other key is refused, so a misspelt option never passes
silently.

Outputs are flat CSV files with '#'-prefixed header comments carrying the
tool version, the resolved configuration (JSON, less the worker count and
output paths, which do not change the data), and the master seed, so any
run can be reproduced byte-for-byte from its own artifacts, with any worker
count.  Optional plot scripts are plain gnuplot programs referencing the
emitted CSVs.  Natural logarithms everywhere.

Exit codes: 0 success, 1 validation error, 2 analytic no-transition or
divergence, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial


from . import __version__
from .asymptotics import (
    METHOD_ANNEALED_MARGIN,
    METHOD_ANNEALED_PAIRS,
    METHOD_COMBINATORIAL,
    METHOD_CROSSING,
    METHOD_MC_FIT,
    annealed_threshold_margin,
    annealed_threshold_pairs,
    asymptotic_log_count,
    fss_rescale,
    transition_load,
)
from .errors import (
    BudgetError,
    NoTransitionError,
    ValidationError,
    VclabError,
)
from .montecarlo import (
    PROBES,
    _map_ordered,
    count_jobs,
    crossover_load,
    sat_fraction_scan,
    scan_jobs,
)
from .montecarlo import estimate_mean_count  # noqa: F401  (a traced name of bench/spans.py)
from .numerics import NEG_INF, Rng
from .recursion import build_count_table, crossing_load, crossing_p_max
from .structure import StructureSpec, psi2, psi_m_estimate, psi_vector, theta_coefficients


def _f(x: float) -> str:
    return "%.17g" % x


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for no-transition
        raise ValidationError(message)


def _number(kind, value):
    """``value`` as a finite int or float; strings are parsed, bools refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        x = kind(value)
    except ValueError:
        raise ValueError(f"expected {kind.__name__}, got {value!r}") from None
    if not math.isfinite(x) or (isinstance(value, float) and x != value):
        raise ValueError(f"not a finite {kind.__name__}: {value!r}")
    return x


def _flag_type(parse):
    """``parse`` as an argparse type whose refusals keep their reason
    (argparse reports a plain ValueError by the function's name)."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' | 'lo:hi:step' | 'lo..hi' (unit step)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"expected lo:hi:step, got {text!r}")
        lo, hi, step = (_number(float, v) for v in parts)
        if step <= 0 or hi < lo:
            raise ValidationError(f"bad grid range {text!r}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + i * step for i in range(count)]
    if ".." in text:
        lo, hi = (_number(float, v) for v in text.split("..", 1))
        if hi < lo:
            raise ValidationError(f"bad grid range {text!r}")
        return [lo + i for i in range(int(math.floor(hi - lo + 1e-9)) + 1)]
    return [_number(float, v) for v in text.split(",") if v.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [_number(int, v) for v in text.split(",") if v.strip()]


def _parse_pairs(text: str) -> list[tuple[int, ...]]:
    """Dimension pairs 'n1:n2,n1:n2'."""
    return [tuple(_number(int, v) for v in pair.split(":")) for pair in text.split(",")]


def _resolve_spec(cfg: dict) -> StructureSpec:
    k = cfg.get("k")
    rho = cfg.get("rho")
    if cfg.get("spec") is not None:
        # a full spec sets both knobs, so either one beside it goes unread
        if k is not None or rho is not None:
            raise ValidationError("a config 'spec' sets the structure: give no --k or --rho with it")
        return StructureSpec.from_json(cfg["spec"])
    if k is None and rho is not None:
        k = 2
    if k is None:
        raise ValidationError("no structure spec: give --k/--rho or a config 'spec'")
    if k == 1:
        # one point per multiplet has no overlap to set
        if rho is not None:
            raise ValidationError("--rho needs --k >= 2, not 1")
        return StructureSpec.unstructured()
    if rho is None:
        raise ValidationError("k > 1 needs --rho (or a full 'spec' object)")
    return StructureSpec.equicorrelated(k, rho)


# Settings that do not change the data: the worker count and where files go.
_NOT_IN_HEADER = ("threads", "out", "plot_script")


def _write_csv(path: str, cfg: dict, columns: list[str], rows: list[tuple],
               notes: tuple[str, ...] = ()) -> None:
    """``notes`` are '#' lines that follow the version, config and seed."""
    kept = {key: value for key, value in cfg.items() if key not in _NOT_IN_HEADER}
    header = [
        f"# vclab {__version__}",
        f"# config = {json.dumps(kept, sort_keys=True, default=str)}",
        f"# seed = {cfg.get('seed', 0)}",
        *notes,
    ]
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _write_text(path: str, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path}", file=sys.stderr)


def _numbers(kind, value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [_number(kind, v) for v in value]


def _pairs(value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of pairs, got {type(value).__name__}")
    pairs = [tuple(_numbers(int, pair)) for pair in value]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected pairs of dimensions")
    return pairs


def _exactly(cls, value):
    if not isinstance(value, cls):
        raise TypeError(f"expected {cls.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class _Kind:
    """How an option's value is read.  ``convert`` takes a config value or
    flag text, ``parse`` the flag text where its syntax differs; a ``many``
    value is a non-empty list whose elements each obey the option's rule."""

    name: str
    convert: Callable
    parse: Callable | None = None
    many: bool = False


_INT = _Kind("INT", partial(_number, int))
_FLOAT = _Kind("FLOAT", partial(_number, float))
_TEXT = _Kind("TEXT", partial(_exactly, str))
_GRID = _Kind("GRID", partial(_numbers, float), _parse_grid, many=True)
_INTS = _Kind("INTS", partial(_numbers, int), _parse_int_list, many=True)
_PAIRS = _Kind("PAIRS", _pairs, _parse_pairs, many=True)


_Rule = namedtuple("_Rule", "holds text")


def _at_least(low: int) -> _Rule:
    return _Rule(lambda x: x >= low, f">= {low}")


def _one_of(*names: str) -> _Rule:
    return _Rule(lambda x: x in names, "one of " + ", ".join(names))


_LAYERS = ("combinatorial", "annealed", "crossing", "mc")


def _layer_names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


@dataclass(frozen=True)
class Option:
    """One option: the ``flag`` that sets it, the ``kind`` of its value, the
    ``rule`` its value (each element, for a list) must obey, and ``help``."""

    flag: str
    kind: _Kind
    help: str
    rule: _Rule | None = None

    @property
    def allowed(self) -> str:
        if self.kind.many:
            return "a non-empty list" + (f", each {self.rule.text}" if self.rule else "")
        return self.rule.text if self.rule else ""

    def describe(self, default) -> str:
        parts = [self.help, self.allowed]
        if default not in (None, []):
            parts.append(f"default {_show(default)}")
        return "; ".join(part for part in parts if part)

    def convert(self, key: str, value):
        try:
            return self.kind.convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"config value {key}={value!r}: {exc}") from exc

    def check(self, key: str, value) -> None:
        items = value if self.kind.many else [value]
        if not items or (self.rule and not all(self.rule.holds(x) for x in items)):
            raise ValidationError(f"{key} ({self.flag}) must be {self.allowed}, got {value!r}")


def _show(value) -> str:
    """A default as it is written on the command line."""
    if isinstance(value, list):
        return ",".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)
    return str(value)


OPTIONS: dict[str, Option] = {
    "k": Option("--k", _INT, "multiplet size", _at_least(1)),
    "rho": Option("--rho", _FLOAT, "overlap of the points of a multiplet"),
    "rho_grid": Option("--rho", _GRID, "pair overlaps, in the syntax of --alpha",
                       _Rule(lambda x: 0 <= x < 1, "inside [0, 1)")),
    "kappa": Option("--kappa", _FLOAT, "margin; in mc absolute, of a unit classifier on unit "
                    "points; in transition in field units, where erfc(kappa) is the large-n "
                    "chance that a point clears the absolute margin kappa*sqrt(2/n)"),
    "theta0": Option("--theta0", _FLOAT, "recursion coefficient theta0, in place of --rho"),
    "theta1": Option("--theta1", _FLOAT, "recursion coefficient theta1"),
    "alpha_star": Option("--alpha-star", _FLOAT, "critical load; unset: the combinatorial one"),
    "method": Option("--method", _TEXT, "analytic route", _one_of(
        METHOD_COMBINATORIAL, METHOD_ANNEALED_PAIRS, METHOD_ANNEALED_MARGIN)),
    "n": Option("--n", _INT, "dimension", _at_least(1)),
    "n_list": Option("--n", _INTS, "comma list of dimensions"),
    "alpha_grid": Option("--alpha", _GRID, "loads p/n: a,b,c or lo:hi:step or lo..hi"),
    "layers": Option("--layers", _TEXT, "layers to compute", _Rule(
        lambda x: bool(_layer_names(x)) and set(_layer_names(x)) <= set(_LAYERS),
        "a comma list of " + ", ".join(_LAYERS))),
    "n_pairs": Option("--n-pairs", _PAIRS, "crossing dimension pairs n1:n2", _Rule(
        lambda x: min(x) >= 1 and x[0] != x[1], "two distinct dimensions >= 1")),
    "mc_n": Option("--mc-n", _INT, "dimension of the sampled layer", _at_least(1)),
    "mode": Option("--mode", _TEXT, "pairs at --rho or margins at --kappa",
                   _one_of("pairs", "margin")),
    "probe": Option("--probe", _TEXT, "SAT decision (count: the exact count, which also decides)",
                    _one_of(*PROBES)),
    "num_weights": Option("--num-weights", _INT, "random weights per probe", _at_least(1)),
    "trials": Option("--trials", _INT, "Monte Carlo trials per point", _at_least(1)),
    "window": Option("--window", _FLOAT, "relative half-width of the load window",
                     _Rule(lambda x: 0 < x < 1, "inside (0, 1)")),
    "points": Option("--points", _INT, "grid points per curve", _at_least(2)),
    "beta": Option("--beta", _FLOAT, "vertical rescaling exponent"),
    "m": Option("--m", _INT, "estimate psi_m for this m only"),
    "samples": Option("--samples", _INT, "Monte Carlo samples", _at_least(1)),
    "out": Option("--out", _TEXT, "output CSV (phase-diagram: file stem)"),
    "plot_script": Option("--plot-script", _TEXT, "gnuplot script to write"),
    "seed": Option("--seed", _INT, "master seed", _at_least(0)),
    "threads": Option("--threads", _INT, "worker processes for Monte Carlo trials", _at_least(1)),
}


def _merge_config(args: argparse.Namespace, command: "_Command") -> dict:
    """Precedence: command-line flags > config file > defaults.  Every value
    of a key in `OPTIONS` is converted to its kind; the command's own
    options must also obey their rules."""
    options = command.options
    cfg = {key: value for key, value in options.items() if value is not None}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ValidationError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must contain a JSON object")
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in OPTIONS and name != "spec":
                raise ValidationError(f"config file {args.config}: unknown key {key!r}")
            if value is not None:  # null means unset, as for an absent flag
                cfg[name] = value
    for key in options:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key, value in cfg.items():
        if key in OPTIONS:
            cfg[key] = OPTIONS[key].convert(key, value)
    for key in options:
        if key in cfg:
            command.option(key).check(key, cfg[key])
    for key in ("out", "plot_script"):
        if key in options and cfg.get(key) is not None:
            # before any work: a file that cannot be written would end the
            # command after all of it (phase-diagram's --out is a file stem)
            folder = os.path.dirname(cfg[key]) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ValidationError(f"{key} ({OPTIONS[key].flag}): {folder!r} is not a "
                                      f"writable directory, got {cfg[key]!r}")
    return cfg


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_count(cfg: dict) -> int:
    spec = _resolve_spec(cfg)
    n_list = cfg["n_list"]
    grid = cfg["alpha_grid"]
    rng = Rng(cfg["seed"])
    rows = []
    analytic = spec.k <= 2
    if analytic:
        theta = theta_coefficients(spec)
        p_max = max(2, int(math.ceil(max(grid) * max(n_list))) + 1)
        table = build_count_table(theta, n_max=max(n_list), p_max=p_max)
        for n in n_list:
            for alpha in grid:
                if alpha * n < 1:
                    continue
                value = table.log_count_at_load(n, alpha)
                rows.append(
                    ("recursion", str(n), _f(alpha * n), _f(alpha), _f(value), _f(0.0))
                )
    trials = cfg["trials"]
    # (n, loads, rng) of every dimension with a load; dimension i reads
    # rng.substream(i), and all of them share one pool
    dims = []
    for i, n in enumerate(n_list if trials else []):
        loads = [p for p in (int(round(alpha * n)) for alpha in grid) if p >= 1]
        if loads:
            dims.append((n, loads, rng.substream(i)))
    if dims:
        jobs, reduce = count_jobs(spec, dims, trials)
        for (n, loads, _), means in zip(dims, reduce(_map_ordered(jobs, cfg["threads"]))):
            for p, (mean, err) in zip(loads, means):
                logc = math.log(mean) if mean > 0 else NEG_INF
                log_err = err / mean if mean > 0 else 0.0
                rows.append(
                    ("montecarlo", str(n), str(p), _f(p / n), _f(logc), _f(log_err))
                )
    if not rows:
        reason = "no load gives p >= 1" if analytic or trials else "k > 2 requires --trials"
        raise ValidationError(f"nothing to compute: {reason}")
    out = cfg["out"]
    _write_csv(out, cfg, ["source", "n", "p", "alpha", "log_count", "stderr"], rows)
    if cfg.get("plot_script"):
        _write_text(cfg["plot_script"], _gnuplot_count(out, n_list))
    return 0


def _gnuplot(settings: list[str], parts: list[str]) -> str:
    """A gnuplot script: comma-separated data, the ``settings`` lines, then
    one plot of the ``parts``, held on screen."""
    plot = ", \\\n".join(parts)
    return "\n".join(["set datafile separator ','", *settings, "plot \\", plot, "pause -1"]) + "\n"


def _gnuplot_count(csv_path: str, n_list: list[int]) -> str:
    parts = []
    for n in n_list:
        parts.append(
            f"  '{csv_path}' using 4:($2=={n} && stringcolumn(1) eq 'recursion' ? $5:1/0) "
            f"with lines title 'recursion n={n}'"
        )
        parts.append(
            f"  '{csv_path}' using 4:($2=={n} && stringcolumn(1) eq 'montecarlo' ? $5:1/0) "
            f"with points title 'montecarlo n={n}'"
        )
    settings = ["set xlabel 'load alpha = p/n'", "set ylabel 'VC entropy log C'",
                "set key left bottom"]
    return _gnuplot(settings, parts)


def _thetas(cfg: dict, needs: str) -> tuple[float, float]:
    """(theta0, theta1): --theta0 or psi2 of --rho, never both, and --theta1."""
    theta0, rho = cfg.get("theta0"), cfg.get("rho")
    if theta0 is not None and rho is not None:
        raise ValidationError("--theta0 stands in for --rho: give one of them, not both")
    if theta0 is not None:
        return theta0, cfg["theta1"]
    if rho is not None:
        return psi2(rho), cfg["theta1"]
    raise ValidationError(f"{needs} needs --rho or --theta0")


def cmd_transition(cfg: dict) -> int:
    method = cfg["method"]
    # each route refuses a knob it does not read, from a flag or a config file
    reads = {
        METHOD_COMBINATORIAL: ("rho", "theta0"),
        METHOD_ANNEALED_PAIRS: ("rho",),
        METHOD_ANNEALED_MARGIN: ("kappa",),
    }
    for knob in ("rho", "theta0", "kappa"):
        if cfg.get(knob) is not None and knob not in reads[method]:
            routes = " or ".join(route for route, knobs in reads.items() if knob in knobs)
            raise ValidationError(f"--{knob} needs --method {routes}, not {method}")
    if method == METHOD_ANNEALED_MARGIN:
        if cfg.get("kappa") is None:
            raise ValidationError("margin method needs --kappa")
        result = annealed_threshold_margin(cfg["kappa"])
    elif method == METHOD_ANNEALED_PAIRS:
        if cfg.get("rho") is None:
            raise ValidationError("annealed pair method needs --rho")
        result = annealed_threshold_pairs(cfg["rho"])
    else:
        result = transition_load(*_thetas(cfg, "combinatorial method"))
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def cmd_phase_diagram(cfg: dict) -> int:
    rho_grid = cfg["rho_grid"]
    layers = _layer_names(cfg["layers"])
    stem = cfg["out"]
    rng = Rng(cfg["seed"])
    # the crossing loads, one job per rho, run ahead of the mc trials as
    # jobs of one pool, so they overlap the trials
    jobs = []
    if "crossing" in layers:
        for rho in rho_grid:
            star = transition_load(psi2(rho), 1.0).alpha_star
            window = (max(0.5, 0.4 * star), 1.8 * star)
            theta = theta_coefficients(StructureSpec.pairs(rho))
            jobs.append((_crossing_loads, theta, cfg["n_pairs"], window))
    if "mc" in layers:
        scans = [(StructureSpec.pairs(rho), rng.substream(i)) for i, rho in enumerate(rho_grid)]
        trial_jobs, reduce = scan_jobs(scans, cfg["mc_n"], cfg["alpha_grid"], cfg["trials"])
        jobs += trial_jobs
    thresholds = {
        "combinatorial": lambda rho: transition_load(psi2(rho), 1.0),
        "annealed": annealed_threshold_pairs,
    }
    for layer, threshold in thresholds.items():
        if layer in layers:
            rows = []
            for rho in rho_grid:
                res = threshold(rho)
                rows.append((_f(rho), _f(res.alpha_star), res.method, _f(res.residual)))
            columns = ["rho", "alpha_star", "method", "residual"]
            _write_csv(f"{stem}.{layer}.csv", cfg, columns, rows)
    results = _map_ordered(jobs, cfg["threads"])
    if "crossing" in layers:
        rows = [(_f(rho), str(n1), str(n2), _f(alpha), METHOD_CROSSING)
                for rho in rho_grid
                for (n1, n2), alpha in zip(cfg["n_pairs"], next(results))]
        _write_csv(f"{stem}.crossing.csv", cfg, ["rho", "n1", "n2", "alpha_cross", "method"], rows)
    if "mc" in layers:
        rows = [
            (_f(rho), _f(q.alpha), str(q.p), str(q.trials), _f(q.fraction), _f(q.stderr))
            for rho, points in zip(rho_grid, reduce(results))
            for q in points
        ]
        _write_csv(
            f"{stem}.mc.csv", cfg, ["rho", "alpha", "p", "trials", "sat_fraction", "stderr"], rows
        )
    if cfg.get("plot_script"):
        _write_text(cfg["plot_script"], _gnuplot_phase(stem, layers))
    return 0


def _crossing_loads(theta, pairs: list[tuple[int, int]], window) -> list[float]:
    """The crossing load of each dimension pair, in pair order, read off one
    count table at the largest dimension, which every pair shares."""
    n_max = max(max(pair) for pair in pairs)
    table = build_count_table(theta, n_max, crossing_p_max(n_max, window))
    return [crossing_load(theta, n1, n2, window, table) for n1, n2 in pairs]


def _gnuplot_phase(stem: str, layers: list[str]) -> str:
    parts = []
    if "combinatorial" in layers:
        parts.append(f"  '{stem}.combinatorial.csv' using 1:2 with lines dt 2 title 'combinatorial'")
    if "annealed" in layers:
        parts.append(f"  '{stem}.annealed.csv' using 1:2 with lines dt 3 title 'annealed'")
    if "crossing" in layers:
        parts.append(f"  '{stem}.crossing.csv' using 1:4 with points pt 6 title 'entropy crossings'")
    if "mc" in layers:
        parts.append(
            f"  '{stem}.mc.csv' using 1:2:($5 > 0.5 ? 1 : 2) with points pt 5 lc variable "
            "title 'sampled SAT(1)/UNSAT(2)'"
        )
    settings = ["set xlabel 'pair overlap rho'", "set ylabel 'critical load'", "set key left top"]
    return _gnuplot(settings, parts)


def cmd_mc(cfg: dict) -> int:
    mode = cfg["mode"]
    trials = cfg["trials"]
    n = cfg["n"]
    grid = cfg["alpha_grid"]
    seed = cfg["seed"]
    rng = Rng(seed)
    # each mode reads one knob and refuses the other, from a flag or a config file
    if mode == "pairs":
        reads, unread, other = "rho", "kappa", "margin"
    else:
        reads, unread, other = "kappa", "rho", "pairs"
    if cfg.get(unread) is not None:
        raise ValidationError(f"--{unread} needs --mode {other}, not {mode}")
    if cfg.get(reads) is None:
        raise ValidationError(f"{mode} mode needs --{reads}")
    knob = cfg[reads]
    if mode == "pairs":
        spec, margin = StructureSpec.pairs(knob), 0.0
    else:
        spec, margin = StructureSpec.unstructured(), knob
    points = sat_fraction_scan(
        spec,
        n,
        grid,
        trials,
        rng,
        margin=margin,
        probe=cfg["probe"],
        num_weights=cfg["num_weights"],
        threads=cfg["threads"],
    )
    for done, q in enumerate(points, 1):
        print(
            f"[{done}/{len(points)}] alpha={q.alpha:g} p={q.p} "
            f"sat_fraction={q.fraction:.4f} +- {q.stderr:.4f}",
            file=sys.stderr,
        )
    try:
        cross, cross_err = crossover_load(points)
        print(
            json.dumps(
                {
                    "alpha_star": cross,
                    "method": METHOD_MC_FIT,
                    "stderr": cross_err,
                    "bracket": [min(q.alpha for q in points), max(q.alpha for q in points)],
                },
                sort_keys=True,
            )
        )
    except ValidationError:
        pass  # the grid does not bracket the half-SAT level
    rows = [
        (mode, _f(knob), str(n), str(q.p), _f(q.alpha), str(q.trials), _f(q.fraction),
         _f(q.stderr), _f(q.mean_count) if q.mean_count is not None else "",
         _f(q.count_stderr) if q.count_stderr is not None else "", str(seed))
        for q in points
    ]
    columns = ["mode", "rho_or_kappa", "n", "p", "alpha", "trials", "sat_fraction", "stderr",
               "mean_count", "count_stderr", "seed"]
    _write_csv(cfg["out"], cfg, columns, rows)
    return 0


def cmd_fss(cfg: dict) -> int:
    theta0, theta1 = _thetas(cfg, "fss")
    n_list = cfg["n_list"]
    if len(set(n_list)) < 2:
        # one curve has nothing to collapse onto: its score is undefined
        raise ValidationError(f"fss needs two distinct dimensions --n, got {_show(n_list)}")
    if cfg.get("alpha_star") is not None:
        alpha_star = cfg["alpha_star"]
    else:
        alpha_star = transition_load(theta0, theta1).alpha_star
    rel = cfg["window"]
    npts = cfg["points"]
    beta = cfg["beta"]
    curve = []
    for n in n_list:
        for i in range(npts):
            alpha = alpha_star * (1 - rel + 2 * rel * i / (npts - 1))
            curve.append((n, alpha, asymptotic_log_count(alpha, n, theta0, theta1)))
    result = fss_rescale(curve, alpha_star, beta=beta)
    control = fss_rescale(curve, alpha_star, beta=0.0)
    rows = [
        (str(n), _f(alpha), _f(logc), _f(x), _f(logy))
        for (n, alpha, logc), (_, x, logy) in zip(curve, result.points)
    ]
    out = cfg["out"]
    scores = (
        f"# collapse_score = {_f(result.collapse_score)}",
        f"# control_score_beta0 = {_f(control.collapse_score)}",
    )
    _write_csv(out, {**cfg, "alpha_star": alpha_star},
               ["n", "alpha", "log_count", "x", "log_y"], rows, scores)
    print(
        json.dumps(
            {
                "alpha_star": alpha_star,
                "collapse_score": result.collapse_score,
                "control_score_beta0": control.collapse_score,
            },
            sort_keys=True,
        )
    )
    if cfg.get("plot_script"):
        _write_text(cfg["plot_script"], _gnuplot_fss(out, n_list))
    return 0


def _gnuplot_fss(csv_path: str, n_list: list[int]) -> str:
    parts = [
        f"  '{csv_path}' using 4:($1=={n} ? $5:1/0) with linespoints title 'n={n}'"
        for n in n_list
    ]
    return _gnuplot(["set xlabel 'rescaled load'", "set ylabel 'rescaled log count'"], parts)


def cmd_psi(cfg: dict) -> int:
    spec = _resolve_spec(cfg)
    if spec.k < 2:
        raise ValidationError(f"psi needs multiplets of k >= 2 points, got k={spec.k}")
    rng = Rng(cfg["seed"])
    n = cfg["n"]
    samples = cfg["samples"]
    if cfg.get("m") is not None:
        m = cfg["m"]
        est, err = psi_m_estimate(spec, m, n, samples, rng)
        print(json.dumps({"m": m, "estimate": est, "stderr": err}, sort_keys=True))
        return 0
    vec = psi_vector(spec, n, samples, rng)
    print(
        json.dumps(
            {
                "m": list(range(2, spec.k + 1)),
                "estimate": list(vec.values),
                "stderr": list(vec.errors),
            },
            sort_keys=True,
        )
    )
    return 0


# ----------------------------------------------------------------------
# commands and parser
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """A subcommand: its function, its one-line help, the keys of the
    options it takes with their defaults (None: unset), and its own rows for
    keys whose `OPTIONS` row does not fit it (such as a lower minimum)."""

    run: Callable[[dict], int]
    help: str
    options: dict
    own: dict[str, Option] = field(default_factory=dict)

    def option(self, key: str) -> Option:
        """The option row this command uses for ``key``."""
        return self.own.get(key, OPTIONS[key])


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say which)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_ALL_CORES = _usable_cpus()

COMMANDS: dict[str, _Command] = {
    "count": _Command(cmd_count, "entropy curves from the recursion and/or Monte Carlo", {
        "k": None, "rho": None, "n_list": [], "alpha_grid": [], "trials": 0,
        "out": "count.csv", "plot_script": None,
        "seed": 0, "threads": 1},
        own={"trials": Option("--trials", _INT, "Monte Carlo trials per point, 0 = analytic only",
                              _Rule(lambda x: x == 0 or x >= 2, "0 or >= 2"))}),
    "transition": _Command(cmd_transition, "one critical load as JSON", {
        "method": METHOD_COMBINATORIAL, "rho": None, "kappa": None,
        "theta0": None, "theta1": 1.0}),
    "phase-diagram": _Command(
        cmd_phase_diagram, "threshold lines, crossings, Monte Carlo layer", {
            "rho_grid": [], "layers": ",".join(_LAYERS), "n_pairs": [(40, 20), (6, 3)],
            "mc_n": 3, "alpha_grid": [1, 2, 3, 4, 5, 6, 8, 10], "trials": 200,
            "out": "phase", "plot_script": None,
            "seed": 0, "threads": _ALL_CORES},
        own={"threads": Option("--threads", _INT, "worker processes for the crossing tables "
                               "and the Monte Carlo trials", _at_least(1))}),
    "mc": _Command(cmd_mc, "SAT-fraction scan over loads", {
        "mode": "pairs", "rho": None, "kappa": None, "n": 3, "alpha_grid": [],
        "trials": 100, "probe": "enumerate", "num_weights": 10000,
        "out": "mc.csv", "seed": 0, "threads": _ALL_CORES}),
    "fss": _Command(cmd_fss, "finite-size-scaling collapse of asymptotic curves", {
        "rho": None, "theta0": None, "theta1": 1.0, "alpha_star": None,
        "n_list": [50, 100, 200], "window": 0.1, "points": 21, "beta": 0.5,
        "out": "fss.csv", "plot_script": None}),
    "psi": _Command(cmd_psi, "agreement-probability estimates", {
        "k": None, "rho": None, "m": None, "n": 50, "samples": 100000, "seed": 0}),
}


def build_parser(names: Iterable[str] = COMMANDS) -> _Parser:
    """The parser of the named subcommands, all of them by default."""
    parser = _Parser(prog="vclab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"vclab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        command = COMMANDS[name]
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help="JSON config file; flags override its values")
        for key, default in command.options.items():
            opt = command.option(key)
            sub.add_argument(opt.flag, dest=key, help=opt.describe(default),
                             type=_flag_type(opt.kind.parse or opt.kind.convert),
                             metavar=opt.kind.name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command named first needs only its own parser; help, --version and
    # an unknown command see every command
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        cfg = _merge_config(args, command)
        print("# config: " + json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)
        return command.run(cfg)
    except BudgetError as exc:
        _report_error(exc)
        return 3
    except NoTransitionError as exc:
        _report_error(exc)
        return 2
    except (ValidationError, VclabError) as exc:
        _report_error(exc)
        return 1


def _report_error(exc: Exception) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(obj, sort_keys=True))
    print(f"vclab: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
