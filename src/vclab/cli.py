"""Command-line front end.

Subcommands: ``count`` (entropy curves), ``phase-diagram`` (threshold lines
plus finite-size and Monte Carlo layers), ``transition`` (single critical
load as JSON), ``mc`` (SAT-fraction / mean-count scans), ``fss``
(finite-size-scaling collapse), ``psi`` (agreement-probability estimates).

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
from functools import partial

import numpy as np

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
from .montecarlo import crossover_load, estimate_mean_count, sat_fraction_scan
from .numerics import NEG_INF, Rng
from .recursion import build_count_table, crossing_load
from .structure import StructureSpec, psi2, psi_m_estimate, psi_vector, theta_coefficients

FMT = "%.17g"


def _f(x: float) -> str:
    return FMT % x


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


@_flag_type
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


@_flag_type
def _parse_int_list(text: str) -> list[int]:
    return [_number(int, v) for v in text.split(",") if v.strip()]


@_flag_type
def _parse_pairs(text: str) -> list[tuple[int, ...]]:
    """Dimension pairs 'n1:n2,n1:n2'."""
    return [tuple(_number(int, v) for v in pair.split(":")) for pair in text.split(",")]


def _resolve_spec(cfg: dict) -> StructureSpec:
    if cfg.get("spec") is not None:
        return StructureSpec.from_json(cfg["spec"])
    k = cfg.get("k")
    rho = cfg.get("rho")
    if k is None and rho is not None:
        k = 2
    if k is None:
        raise ValidationError("no structure spec: give --k/--rho or a config 'spec'")
    if k == 1:
        return StructureSpec.unstructured()
    if rho is None:
        raise ValidationError("k > 1 needs --rho (or a full 'spec' object)")
    return StructureSpec.equicorrelated(k, rho)


# Settings that do not change the data: the worker count and where files go.
_NOT_IN_HEADER = ("threads", "out", "plot_script")


def _header_lines(cfg: dict) -> list[str]:
    kept = {key: value for key, value in cfg.items() if key not in _NOT_IN_HEADER}
    blob = json.dumps(kept, sort_keys=True, default=str)
    return [
        f"# vclab {__version__}",
        f"# config = {blob}",
        f"# seed = {cfg.get('seed', 0)}",
    ]


def _write_csv(path: str, cfg: dict, columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _write_text(path: str, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path}", file=sys.stderr)


def _echo_config(cfg: dict) -> None:
    print("# config: " + json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)


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


def _string(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


# The one place config values (defaults, config file, flags) get their types.
_CONFIG_TYPES = {
    **{key: partial(_number, int) for key in (
        "seed", "threads", "p_enum_max", "trials", "n", "mc_n", "m", "k",
        "samples", "points", "num_weights")},
    **{key: partial(_number, float) for key in (
        "rho", "kappa", "theta0", "theta1", "alpha_star", "window", "beta")},
    "alpha_grid": partial(_numbers, float),
    "rho_grid": partial(_numbers, float),
    "n_list": partial(_numbers, int),
    "n_pairs": _pairs,
    **{key: _string for key in ("out", "plot_script", "layers", "mode", "probe", "method")},
}


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Precedence: command-line flags > config file > defaults."""
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ValidationError(f"config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must contain a JSON object")
        for key, value in loaded.items():
            if value is not None:  # null means unset, as for an absent flag
                cfg[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if value is not None:
            cfg[key] = value
    for key, convert in _CONFIG_TYPES.items():
        if cfg.get(key) is not None:
            try:
                cfg[key] = convert(cfg[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"config value {key}={cfg[key]!r}: {exc}") from exc
    if "threads" in defaults and cfg["threads"] < 1:
        raise ValidationError(f"threads must be an integer >= 1, got {cfg['threads']!r}")
    return cfg


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_count(cfg: dict) -> int:
    spec = _resolve_spec(cfg)
    n_list = cfg["n_list"]
    grid = cfg["alpha_grid"]
    if not n_list or not grid:
        raise ValidationError("count needs a dimension list and a load grid")
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
    trials = cfg.get("trials") or 0
    if trials:
        for i, n in enumerate(n_list):
            for j, alpha in enumerate(grid):
                p = int(round(alpha * n))
                if p < 1:
                    continue
                mean, err = estimate_mean_count(
                    spec,
                    n,
                    p,
                    trials,
                    rng.substream(i, j),
                    p_enum_max=cfg["p_enum_max"],
                    threads=cfg["threads"],
                )
                logc = math.log(mean) if mean > 0 else NEG_INF
                log_err = err / mean if mean > 0 else 0.0
                rows.append(
                    ("montecarlo", str(n), str(p), _f(p / n), _f(logc), _f(log_err))
                )
    if not rows:
        raise ValidationError("nothing to compute: k > 2 requires --trials")
    out = cfg["out"]
    _write_csv(out, cfg, ["source", "n", "p", "alpha", "log_count", "stderr"], rows)
    if cfg.get("plot_script"):
        _write_text(cfg["plot_script"], _gnuplot_count(out, n_list))
    return 0


def _gnuplot_count(csv_path: str, n_list: list[int]) -> str:
    lines = [
        "set datafile separator ','",
        "set xlabel 'load alpha = p/n'",
        "set ylabel 'VC entropy log C'",
        "set key left bottom",
        "plot \\",
    ]
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
    lines.append(", \\\n".join(parts))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def cmd_transition(cfg: dict) -> int:
    method = cfg["method"]
    if method == METHOD_ANNEALED_MARGIN or cfg.get("kappa") is not None:
        if cfg.get("kappa") is None:
            raise ValidationError("margin method needs --kappa")
        result = annealed_threshold_margin(cfg["kappa"])
    elif method == METHOD_ANNEALED_PAIRS:
        if cfg.get("rho") is None:
            raise ValidationError("annealed pair method needs --rho")
        result = annealed_threshold_pairs(cfg["rho"])
    elif method == METHOD_COMBINATORIAL:
        if cfg.get("theta0") is not None:
            result = transition_load(cfg["theta0"], cfg["theta1"])
        elif cfg.get("rho") is not None:
            result = transition_load(psi2(cfg["rho"]), 1.0)
        else:
            raise ValidationError("combinatorial method needs --rho or --theta0")
    else:
        raise ValidationError(f"unknown method {method!r}")
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def cmd_phase_diagram(cfg: dict) -> int:
    rho_grid = cfg["rho_grid"]
    if not rho_grid or any(not 0 <= r < 1 for r in rho_grid):
        raise ValidationError("phase diagram needs a rho grid inside [0, 1)")
    layers = [layer.strip() for layer in cfg["layers"].split(",") if layer.strip()]
    stem = cfg["out"]
    rng = Rng(cfg["seed"])
    written = []
    if "combinatorial" in layers:
        rows = []
        for rho in rho_grid:
            res = transition_load(psi2(rho), 1.0)
            rows.append((_f(rho), _f(res.alpha_star), res.method, _f(res.residual)))
        path = f"{stem}.combinatorial.csv"
        _write_csv(path, cfg, ["rho", "alpha_star", "method", "residual"], rows)
        written.append(path)
    if "annealed" in layers:
        rows = []
        for rho in rho_grid:
            res = annealed_threshold_pairs(rho)
            rows.append((_f(rho), _f(res.alpha_star), res.method, _f(res.residual)))
        path = f"{stem}.annealed.csv"
        _write_csv(path, cfg, ["rho", "alpha_star", "method", "residual"], rows)
        written.append(path)
    if "crossing" in layers:
        rows = []
        pairs = cfg["n_pairs"]
        for rho in rho_grid:
            star = transition_load(psi2(rho), 1.0).alpha_star
            window = (max(0.5, 0.4 * star), 1.8 * star)
            theta = theta_coefficients(StructureSpec.pairs(rho))
            for n1, n2 in pairs:
                alpha = crossing_load(theta, n1, n2, window)
                rows.append(
                    (_f(rho), str(n1), str(n2), _f(alpha), METHOD_CROSSING)
                )
        path = f"{stem}.crossing.csv"
        _write_csv(path, cfg, ["rho", "n1", "n2", "alpha_cross", "method"], rows)
        written.append(path)
    if "mc" in layers:
        rows = []
        n = cfg["mc_n"]
        grid = cfg["alpha_grid"]
        trials = cfg["trials"]
        for i, rho in enumerate(rho_grid):
            spec = StructureSpec.pairs(rho)
            points = sat_fraction_scan(
                spec,
                n,
                grid,
                trials,
                rng.substream(i),
                p_enum_max=cfg["p_enum_max"],
                threads=cfg["threads"],
            )
            for q in points:
                rows.append(
                    (
                        _f(rho),
                        _f(q.alpha),
                        str(q.p),
                        str(q.trials),
                        _f(q.fraction),
                        _f(q.stderr),
                    )
                )
        path = f"{stem}.mc.csv"
        _write_csv(
            path, cfg, ["rho", "alpha", "p", "trials", "sat_fraction", "stderr"], rows
        )
        written.append(path)
    if cfg.get("plot_script"):
        _write_text(cfg["plot_script"], _gnuplot_phase(stem, layers))
    if not written:
        raise ValidationError(f"no known layers among {layers}")
    return 0


def _gnuplot_phase(stem: str, layers: list[str]) -> str:
    lines = [
        "set datafile separator ','",
        "set xlabel 'pair overlap rho'",
        "set ylabel 'critical load'",
        "set key left top",
    ]
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
    lines.append("plot \\")
    lines.append(", \\\n".join(parts))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def cmd_mc(cfg: dict) -> int:
    mode = cfg["mode"]
    trials = cfg["trials"]
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n = cfg["n"]
    grid = cfg["alpha_grid"]
    if not grid:
        raise ValidationError("mc needs a load grid")
    seed = cfg["seed"]
    rng = Rng(seed)
    if mode == "pairs":
        if cfg.get("rho") is None:
            raise ValidationError("pairs mode needs --rho")
        spec = StructureSpec.pairs(cfg["rho"])
        margin = 0.0
        knob = cfg["rho"]
    elif mode == "margin":
        if cfg.get("kappa") is None:
            raise ValidationError("margin mode needs --kappa")
        spec = StructureSpec.unstructured()
        margin = cfg["kappa"]
        knob = margin
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    def _progress(point, done, total):
        print(
            f"[{done}/{total}] alpha={point.alpha:g} p={point.p} "
            f"sat_fraction={point.fraction:.4f} +- {point.stderr:.4f}",
            file=sys.stderr,
        )

    try:
        points = sat_fraction_scan(
            spec,
            n,
            grid,
            trials,
            rng,
            margin=margin,
            p_enum_max=cfg["p_enum_max"],
            probe=cfg["probe"],
            num_weights=cfg["num_weights"],
            threads=cfg["threads"],
            with_counts=bool(cfg.get("with_counts")),
            progress=_progress,
        )
    except BudgetError as exc:
        raise BudgetError(
            f"{exc}; try --probe random-classifier for loads beyond the budget"
        ) from exc
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
    rows = []
    for q in points:
        rows.append(
            (
                mode,
                _f(knob),
                str(n),
                str(q.p),
                _f(q.alpha),
                str(q.trials),
                _f(q.fraction),
                _f(q.stderr),
                _f(q.mean_count) if q.mean_count is not None else "",
                _f(q.count_stderr) if q.count_stderr is not None else "",
                str(seed),
            )
        )
    _write_csv(
        cfg["out"],
        cfg,
        [
            "mode",
            "rho_or_kappa",
            "n",
            "p",
            "alpha",
            "trials",
            "sat_fraction",
            "stderr",
            "mean_count",
            "count_stderr",
            "seed",
        ],
        rows,
    )
    return 0


def cmd_fss(cfg: dict) -> int:
    if cfg.get("theta0") is not None:
        theta0 = cfg["theta0"]
    elif cfg.get("rho") is not None:
        theta0 = psi2(cfg["rho"])
    else:
        raise ValidationError("fss needs --rho or --theta0")
    theta1 = cfg["theta1"]
    n_list = cfg["n_list"]
    if not n_list:
        raise ValidationError("fss needs a dimension list")
    if cfg.get("alpha_star") is not None:
        alpha_star = cfg["alpha_star"]
    else:
        alpha_star = transition_load(theta0, theta1).alpha_star
    rel = cfg["window"]
    npts = cfg["points"]
    if npts < 2:
        raise ValidationError(f"fss needs at least 2 points per curve, got {npts}")
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
    cfg_out = dict(cfg)
    cfg_out["alpha_star"] = alpha_star
    out = cfg["out"]
    with open(out, "w") as fh:
        for line in _header_lines(cfg_out):
            fh.write(line + "\n")
        fh.write(f"# collapse_score = {_f(result.collapse_score)}\n")
        fh.write(f"# control_score_beta0 = {_f(control.collapse_score)}\n")
        fh.write("n,alpha,log_count,x,log_y\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {out}", file=sys.stderr)
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
    lines = [
        "set datafile separator ','",
        "set xlabel 'rescaled load'",
        "set ylabel 'rescaled log count'",
        "plot \\",
    ]
    parts = [
        f"  '{csv_path}' using 4:($1=={n} ? $5:1/0) with linespoints title 'n={n}'"
        for n in n_list
    ]
    lines.append(", \\\n".join(parts))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def cmd_psi(cfg: dict) -> int:
    spec = _resolve_spec(cfg)
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
# parser
# ----------------------------------------------------------------------


_COMMON_FLAGS = {
    "seed": "master seed (default 0)",
    "threads": "worker processes for Monte Carlo trials",
    "p_enum_max": "sign-vector enumeration budget (default 22)",
}


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    """``--config`` and the named ones of `_COMMON_FLAGS`."""
    sub.add_argument("--config", help="JSON config file; flags override its values")
    for name in flags:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=int,
                         help=_COMMON_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="vclab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"vclab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("count", help="entropy curves from the recursion and/or Monte Carlo")
    c.add_argument("--k", type=int)
    c.add_argument("--rho", type=float)
    c.add_argument("--n", dest="n_list", type=_parse_int_list, help="comma list of dimensions")
    c.add_argument("--alpha", dest="alpha_grid", type=_parse_grid, help="load grid")
    c.add_argument("--trials", type=int, help="Monte Carlo trials per point (0 = analytic only)")
    c.add_argument("--out")
    c.add_argument("--plot-script", dest="plot_script")
    _add_common(c, "seed", "threads", "p_enum_max")
    c.set_defaults(func=cmd_count)

    t = subs.add_parser("transition", help="one critical load as JSON")
    t.add_argument("--method", choices=[METHOD_COMBINATORIAL, METHOD_ANNEALED_PAIRS,
                                        METHOD_ANNEALED_MARGIN])
    t.add_argument("--rho", type=float)
    t.add_argument("--kappa", type=float)
    t.add_argument("--theta0", type=float)
    t.add_argument("--theta1", type=float)
    _add_common(t)
    t.set_defaults(func=cmd_transition)

    d = subs.add_parser("phase-diagram", help="threshold lines, crossings, Monte Carlo layer")
    d.add_argument("--rho", dest="rho_grid", type=_parse_grid, help="overlap grid in [0,1)")
    d.add_argument("--layers", help="comma subset of combinatorial,annealed,crossing,mc")
    d.add_argument("--n-pairs", dest="n_pairs", type=_parse_pairs,
                   help="crossing dimension pairs, e.g. 40:20,6:3")
    d.add_argument("--mc-n", dest="mc_n", type=int, help="dimension of the sampled layer")
    d.add_argument("--alpha", dest="alpha_grid", type=_parse_grid, help="load grid of the sampled layer")
    d.add_argument("--trials", type=int)
    d.add_argument("--out")
    d.add_argument("--plot-script", dest="plot_script")
    _add_common(d, "seed", "threads", "p_enum_max")
    d.set_defaults(func=cmd_phase_diagram)

    m = subs.add_parser("mc", help="SAT-fraction scan over loads")
    m.add_argument("--mode", choices=["pairs", "margin"])
    m.add_argument("--rho", type=float)
    m.add_argument("--kappa", type=float)
    m.add_argument("--n", type=int)
    m.add_argument("--alpha", dest="alpha_grid", type=_parse_grid)
    m.add_argument("--trials", type=int)
    m.add_argument("--probe", choices=["enumerate", "random-classifier"])
    m.add_argument("--num-weights", dest="num_weights", type=int)
    m.add_argument("--with-counts", dest="with_counts", action="store_const", const=True)
    m.add_argument("--out")
    _add_common(m, "seed", "threads", "p_enum_max")
    m.set_defaults(func=cmd_mc)

    f = subs.add_parser("fss", help="finite-size-scaling collapse of asymptotic curves")
    f.add_argument("--rho", type=float)
    f.add_argument("--theta0", type=float)
    f.add_argument("--theta1", type=float)
    f.add_argument("--alpha-star", dest="alpha_star", type=float)
    f.add_argument("--n", dest="n_list", type=_parse_int_list)
    f.add_argument("--window", type=float, help="relative half-width of the load window")
    f.add_argument("--points", type=int, help="grid points per curve")
    f.add_argument("--beta", type=float, help="vertical rescaling exponent (default 0.5)")
    f.add_argument("--out")
    f.add_argument("--plot-script", dest="plot_script")
    _add_common(f)
    f.set_defaults(func=cmd_fss)

    p = subs.add_parser("psi", help="agreement-probability estimates")
    p.add_argument("--k", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    _add_common(p, "seed")
    p.set_defaults(func=cmd_psi)

    return parser


_DEFAULTS: dict[str, dict] = {
    "count": {"seed": 0, "threads": 1, "p_enum_max": 22, "trials": 0,
              "out": "count.csv", "n_list": [], "alpha_grid": []},
    "transition": {"method": METHOD_COMBINATORIAL, "theta1": 1.0},
    "phase-diagram": {"seed": 0, "threads": os.cpu_count() or 1, "p_enum_max": 22,
                      "layers": "combinatorial,annealed,crossing,mc",
                      "n_pairs": [(40, 20), (6, 3)], "mc_n": 3,
                      "alpha_grid": [1, 2, 3, 4, 5, 6, 8, 10], "trials": 200,
                      "rho_grid": [], "out": "phase"},
    "mc": {"seed": 0, "threads": os.cpu_count() or 1, "p_enum_max": 22,
           "mode": "pairs", "probe": "enumerate", "num_weights": 10000,
           "trials": 100, "n": 3, "alpha_grid": [], "out": "mc.csv",
           "with_counts": False},
    "fss": {"n_list": [50, 100, 200], "theta1": 1.0, "window": 0.1, "points": 21,
            "beta": 0.5, "out": "fss.csv"},
    "psi": {"seed": 0, "n": 50, "samples": 100000},
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args, _DEFAULTS[args.command])
        _echo_config(cfg)
        return args.func(cfg)
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
