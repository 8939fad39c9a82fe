"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import re

import pytest

from vclab import Rng, StructureSpec, __version__, montecarlo, psi2, sat_fraction_scan
from vclab import cli
from vclab.cli import COMMANDS, OPTIONS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(path):
    return [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]


class TestTransition:
    def test_combinatorial_value(self, capsys):
        code, out, _ = run(capsys, "transition", "--rho", "0", "--method", "combinatorial")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_star"] == pytest.approx(4.8638761829, abs=1e-6)
        assert payload["method"] == "combinatorial"
        assert payload["residual"] <= 1e-10

    def test_divergence_exit_code(self, capsys):
        code, out, _ = run(capsys, "transition", "--rho", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "NoTransitionError"

    def test_margin_threshold(self, capsys):
        code, out, _ = run(capsys, "transition", "--kappa", "1", "--method", "annealed-margin")
        assert code == 0
        assert json.loads(out)["alpha_star"] == pytest.approx(0.7672, abs=1e-4)

    @pytest.mark.parametrize("method", ["annealed-pairs", "combinatorial"])
    def test_kappa_needs_the_margin_method(self, capsys, method):
        code, out, _ = run(capsys, "transition", "--method", method, "--rho", "0.5", "--kappa", "1")
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"

    def test_annealed_pairs(self, capsys):
        code, out, _ = run(capsys, "transition", "--rho", "0", "--method", "annealed-pairs")
        assert code == 0
        expected = (1 + math.log(2 * math.pi)) / (2 * math.log(2))
        assert json.loads(out)["alpha_star"] == pytest.approx(expected, rel=1e-12)

    def test_missing_input_is_validation_error(self, capsys):
        code, out, _ = run(capsys, "transition", "--method", "combinatorial")
        assert code == 1

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "method, knob",
        [("annealed-pairs", "theta0"), ("annealed-margin", "rho"), ("annealed-margin", "theta0")],
    )
    def test_route_refuses_the_knob_it_does_not_read(self, capsys, tmp_path, method, knob, where):
        # each knob alone, from a flag or a config file, where the route reads another
        reads = ["--kappa", "0.5"] if method == "annealed-margin" else ["--rho", "0.5"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({knob: 0.3}))
        extra = [f"--{knob}", "0.3"] if where == "flag" else ["--config", str(cfg)]
        code, out, _ = run(capsys, "transition", "--method", method, *reads, *extra)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith(f"--{knob} needs --method combinatorial")
        assert payload["message"].endswith(f"not {method}")

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command", ["transition", "fss"])
    def test_theta0_and_rho_together_are_refused(self, capsys, tmp_path, command, where):
        # --theta0 stands in for psi2(--rho); given both, neither may win unseen
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta0": 0.5}))
        extra = ["--theta0", "0.5"] if where == "flag" else ["--config", str(cfg)]
        out_file = tmp_path / "x.csv"
        tail = ["--out", str(out_file)] if command == "fss" else []
        code, out, _ = run(capsys, command, "--rho", "0.5", *extra, *tail)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert "--theta0" in payload["message"] and "--rho" in payload["message"]
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["transition", "fss"])
    def test_zero_theta1_is_domain_error(self, capsys, tmp_path, command):
        extra = ["--out", str(tmp_path / "x.csv")] if command == "fss" else []
        for theta0 in (["--theta0", "0.5"], ["--rho", "0.5"]):
            code, out, _ = run(capsys, command, *theta0, "--theta1", "0", *extra)
            assert code == 1
            assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("command", ["transition", "fss"])
    def test_rho_means_theta0_psi2_rho(self, capsys, tmp_path, command):
        # one (theta0, theta1) rule: --theta1 counts beside --rho as beside --theta0
        extra = ["--out", str(tmp_path / "x.csv")] if command == "fss" else []
        code, by_rho, _ = run(capsys, command, "--rho", "0.5", "--theta1", "0.5", *extra)
        assert code == 0
        theta0 = repr(psi2(0.5))
        code, by_theta, _ = run(capsys, command, "--theta0", theta0, "--theta1", "0.5", *extra)
        assert code == 0
        assert by_rho == by_theta
        code, plain, _ = run(capsys, command, "--rho", "0.5", *extra)
        assert json.loads(plain)["alpha_star"] > json.loads(by_rho)["alpha_star"]


class TestCount:
    def test_writes_curves_and_header(self, capsys, tmp_path):
        out = tmp_path / "count.csv"
        code, _, _ = run(
            capsys, "count", "--k", "2", "--rho", "0.5",
            "--n", "5,10", "--alpha", "1:3:1", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith(f"# vclab {__version__}\n")
        assert "# config = " in text and "# seed = 0" in text
        rows = data_lines(out)
        assert rows[0] == "source,n,p,alpha,log_count,stderr"
        assert len(rows) == 1 + 6

    def test_empty_grid_is_validation_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "count", "--k", "1", "--n", "3", "--alpha", ",",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_plot_script_emitted(self, capsys, tmp_path):
        out = tmp_path / "count.csv"
        script = tmp_path / "count.gp"
        code, _, _ = run(
            capsys, "count", "--k", "1", "--n", "4", "--alpha", "1,2",
            "--out", str(out), "--plot-script", str(script),
        )
        assert code == 0
        assert "plot" in script.read_text()

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--k", "1", "--alpha", "0.1", "--trials", "2"], "no load gives p >= 1"),
            (["--k", "1", "--alpha", "0.1"], "no load gives p >= 1"),
            (["--k", "3", "--rho", "0.2", "--alpha", "0.1", "--trials", "2"], "no load gives p >= 1"),
            (["--k", "3", "--rho", "0.2", "--alpha", "1"], "k > 2 requires --trials"),
        ],
        ids=["k1-trials", "k1-analytic", "k3-trials", "k3-no-trials"],
    )
    def test_nothing_to_compute_names_the_reason(self, capsys, tmp_path, argv, reason):
        code, out, _ = run(capsys, "count", "--n", "3", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert json.loads(out)["message"] == f"nothing to compute: {reason}"
        assert not (tmp_path / "x.csv").exists()

    def test_montecarlo_rows(self, capsys, tmp_path):
        out = tmp_path / "count.csv"
        code, _, _ = run(
            capsys, "count", "--k", "3", "--rho", "0.2", "--n", "3",
            "--alpha", "1,2", "--trials", "10", "--out", str(out),
        )
        assert code == 0
        rows = data_lines(out)
        assert all(r.startswith("montecarlo") for r in rows[1:])

    def test_counts_every_load_of_every_trial_load_major(self, capsys, tmp_path, monkeypatch):
        # the benchmark reads the exact counts in this call order
        loads = []
        inner = montecarlo.count_admissible_dichotomies

        def recording(dataset, *args, **kwargs):
            loads.append(dataset.p)
            return inner(dataset, *args, **kwargs)

        monkeypatch.setattr("vclab.montecarlo.count_admissible_dichotomies", recording)
        code, _, _ = run(
            capsys, "count", "--k", "2", "--rho", "0.5", "--n", "3", "--alpha", "2,3,4,5",
            "--trials", "3", "--threads", "1", "--out", str(tmp_path / "count.csv"),
        )
        assert code == 0
        assert loads == [p for p in (6, 9, 12, 15) for _ in range(3)]

    def test_nonpositive_dimension_is_out_of_grid(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--rho", "0.5", "--n=-3,5", "--alpha=-1,1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(out)["error"] == "OutOfGridError"
        assert not (tmp_path / "x.csv").exists()


class TestMc:
    def test_scan_csv_and_crossover_json(self, capsys, tmp_path):
        out = tmp_path / "mc.csv"
        code, stdout, stderr = run(
            capsys, "mc", "--mode", "pairs", "--rho", "0.5", "--n", "3",
            "--alpha", "1..6", "--trials", "40", "--threads", "1",
            "--out", str(out),
        )
        assert code == 0
        rows = data_lines(out)
        assert rows[0] == (
            "mode,rho_or_kappa,n,p,alpha,trials,sat_fraction,stderr,"
            "mean_count,count_stderr,seed"
        )
        assert len(rows) == 1 + 6
        fit = json.loads(stdout)
        assert fit["method"] == "montecarlo-fit"
        assert 1.0 < fit["alpha_star"] < 6.0
        assert "sat_fraction" in stderr  # progress reporting

    def test_byte_identical_rerun(self, capsys, tmp_path):
        args = [
            "mc", "--mode", "pairs", "--rho", "0.3", "--n", "3",
            "--alpha", "1,2", "--trials", "20",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, *args, "--threads", "1", "--out", str(a))[0] == 0
        assert run(capsys, *args, "--threads", "2", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_threads_validation(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "mc", "--mode", "pairs", "--rho", "0.5", "--n", "3",
            "--alpha", "1,2", "--trials", "2", "--threads", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["nan", "1,inf", "0:inf:1", "1..inf"])
    def test_non_finite_load_is_validation_error(self, capsys, tmp_path, grid):
        code, out, _ = run(
            capsys, "mc", "--mode", "pairs", "--rho", "0.5", "--n", "3",
            "--alpha", grid, "--trials", "2", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"

    def test_zero_trials_validation(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "mc", "--mode", "pairs", "--rho", "0.5", "--n", "3",
            "--alpha", "1,2", "--trials", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        # refused by the option check, before any command runs
        assert json.loads(out)["message"] == "trials (--trials) must be >= 1, got 0"
        assert not (tmp_path / "x.csv").exists()

    def test_budget_exit_code_and_hint(self, capsys, tmp_path, monkeypatch):
        # pairs at n = 10 at margin 0, and k=1 points at a margin: the first
        # trials need 140 and 3 extension-engine solves, so a budget of 2
        # refuses both
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 2)
        for load in (
            ("--mode", "pairs", "--rho", "0.5", "--n", "10", "--alpha", "2.4", "--trials", "2"),
            ("--mode", "margin", "--kappa", "0.6", "--n", "4", "--alpha", "5.75", "--trials", "1"),
        ):
            code, out, _ = run(
                capsys, "mc", *load, "--threads", "1", "--out", str(tmp_path / "x.csv")
            )
            assert code == 3
            message = json.loads(out)["message"]
            assert message.count("random-classifier") == 1
            assert "random_classifier_probe" not in message

    def test_with_counts_refuses_the_random_classifier_probe(self, capsys, tmp_path):
        # --with-counts is gone, with or without a probe: --probe count counts
        out = tmp_path / "x.csv"
        args = ["mc", "--rho", "0.5", "--n", "3", "--alpha", "1,2", "--trials", "4",
                "--threads", "1", "--out", str(out)]
        code, stdout, _ = run(capsys, *args, "--with-counts", "--probe", "random-classifier")
        assert code == 1
        assert "unrecognized arguments: --with-counts" in json.loads(stdout)["message"]
        assert not out.exists()
        assert run(capsys, *args, "--probe", "count")[0] == 0
        assert '"probe": "count"' in out.read_text()
        points = sat_fraction_scan(StructureSpec.pairs(0.5), 3, [1, 2], 4, Rng(0), probe="count")
        rows = [row.split(",") for row in data_lines(out)[1:]]
        assert [(row[6], row[8], row[9]) for row in rows] == [
            ("%.17g" % q.fraction, "%.17g" % q.mean_count, "%.17g" % q.count_stderr)
            for q in points
        ]

    def test_negative_margin_is_validation_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "mc", "--mode", "margin", "--kappa", "-1", "--n", "3", "--alpha", "1,2,4",
            "--trials", "2", "--threads", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == "margin must be >= 0"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "mode, unread",
        [(["--mode", "pairs", "--rho", "0.5"], "kappa"),
         (["--mode", "margin", "--kappa", "0.5"], "rho")],
        ids=["pairs", "margin"],
    )
    def test_mode_refuses_the_knob_it_does_not_read(self, capsys, tmp_path, mode, unread, where):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({unread: 0.3}))
        extra = [f"--{unread}", "0.3"] if where == "flag" else ["--config", str(cfg)]
        code, out, _ = run(
            capsys, "mc", *mode, *extra, "--n", "3", "--alpha", "1", "--trials", "2",
            "--threads", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith(f"--{unread} needs --mode ")
        assert not (tmp_path / "x.csv").exists()

    def test_margin_mode(self, capsys, tmp_path):
        out = tmp_path / "margin.csv"
        code, _, _ = run(
            capsys, "mc", "--mode", "margin", "--kappa", "0.5", "--n", "3",
            "--alpha", "1,2,3,4", "--trials", "30", "--threads", "1",
            "--out", str(out),
        )
        assert code == 0
        rows = data_lines(out)
        assert rows[1].startswith("margin,0.5,3,")


class TestPhaseDiagram:
    def test_layer_files(self, capsys, tmp_path):
        stem = tmp_path / "phase"
        code, _, _ = run(
            capsys, "phase-diagram", "--rho", "0,0.4", "--layers",
            "combinatorial,annealed,crossing", "--n-pairs", "12:6",
            "--out", str(stem),
        )
        assert code == 0
        comb = data_lines(tmp_path / "phase.combinatorial.csv")
        ann = data_lines(tmp_path / "phase.annealed.csv")
        cross = data_lines(tmp_path / "phase.crossing.csv")
        assert len(comb) == len(ann) == 3
        # the annealed layer is a lower bound row by row
        for c, a in zip(comb[1:], ann[1:]):
            assert float(a.split(",")[1]) < float(c.split(",")[1])
        assert len(cross) == 3

    def test_mc_layer(self, capsys, tmp_path):
        stem = tmp_path / "phase"
        code, _, _ = run(
            capsys, "phase-diagram", "--rho", "0.5", "--layers", "mc",
            "--alpha", "1,2", "--trials", "10", "--threads", "1",
            "--out", str(stem),
        )
        assert code == 0
        rows = data_lines(tmp_path / "phase.mc.csv")
        assert rows[0] == "rho,alpha,p,trials,sat_fraction,stderr"
        assert len(rows) == 3

    def test_invalid_rho_grid(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "phase-diagram", "--rho", "0.5,1.0", "--out",
            str(tmp_path / "phase"),
        )
        assert code == 1

    def test_real_pool_writes_the_serial_bytes(self, capsys, tmp_path):
        # every layer with the default n-pairs: the crossing tables and the
        # trials share one real pool at threads 2
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            code, _, _ = run(capsys, "phase-diagram", "--rho", "0,0.2,0.5,0.8",
                             "--alpha", "1,2,4,8", "--trials", "4", "--seed", "3",
                             "--threads", threads, "--out", str(out / "phase"))
            assert code == 0
            files[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(files["1"]) == 4
        assert files["1"] == files["2"]

    def test_zero_crossing_dimension_is_validation_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "phase-diagram", "--rho", "0", "--layers", "crossing",
            "--n-pairs", "0:3", "--out", str(tmp_path / "phase"),
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"

    def test_unknown_layer_is_refused(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "phase-diagram", "--rho", "0", "--layers", "crosing,mc",
            "--out", str(tmp_path / "phase"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert "layers" in payload["message"]
        assert not list(tmp_path.iterdir())

    def test_mc_dimension_below_the_pair_size_is_refused_before_any_file(
        self, capsys, tmp_path, monkeypatch
    ):
        # the pairs of the mc layer need --mc-n >= 2: refused before the
        # threshold files are written or a pool is opened
        def no_pool(max_workers):
            raise AssertionError("a pool was opened")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(
            capsys, "phase-diagram", "--rho", "0.5", "--mc-n", "1", "--trials", "2",
            "--alpha", "1,2", "--threads", "2", "--out", str(tmp_path / "ph"),
        )
        assert code == 1
        assert json.loads(out) == {"error": "DimensionError",
                                   "message": "need n >= k, got n=1, k=2"}
        assert not list(tmp_path.iterdir())


# Each command that writes files, the option that names one, and a short run.
OUTPUTS = [
    ("count", "out", ["--k", "1", "--n", "3", "--alpha", "1"]),
    ("count", "plot_script", ["--k", "1", "--n", "3", "--alpha", "1"]),
    ("phase-diagram", "out", ["--rho", "0", "--alpha", "1", "--trials", "2", "--threads", "1"]),
    ("phase-diagram", "plot_script", ["--rho", "0", "--layers", "annealed"]),
    ("mc", "out", ["--rho", "0.5", "--n", "3", "--alpha", "1,2", "--trials", "2",
                   "--threads", "1"]),
    ("fss", "out", ["--rho", "0"]),
    ("fss", "plot_script", ["--rho", "0"]),
]


class TestOutputPaths:
    @pytest.mark.parametrize("command, key, argv", OUTPUTS,
                             ids=[f"{c}-{k}" for c, k, _ in OUTPUTS])
    def test_missing_directory_is_refused_before_the_command_runs(
            self, capsys, tmp_path, monkeypatch, command, key, argv):
        def ran(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(COMMANDS, command, dataclasses.replace(COMMANDS[command], run=ran))
        missing = tmp_path / "no" / "such"
        paths = {"out": str(tmp_path / "x"), key: str(missing / "x")}
        flags = [arg for k, path in paths.items() for arg in (OPTIONS[k].flag, path)]
        code, out, err = run(capsys, command, *argv, *flags)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith(f"{key} ({OPTIONS[key].flag}): ")
        assert str(missing) in payload["message"]
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestFss:
    def test_scores_and_file(self, capsys, tmp_path):
        out = tmp_path / "fss.csv"
        code, stdout, _ = run(
            capsys, "fss", "--rho", "0", "--n", "50,100,200", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["collapse_score"] * 5 <= payload["control_score_beta0"]
        header = out.read_text()
        assert "# collapse_score" in header

    def test_beta_override_degrades(self, capsys, tmp_path):
        out = tmp_path / "fss.csv"
        code, stdout, _ = run(
            capsys, "fss", "--rho", "0", "--n", "50,100", "--beta", "0",
            "--out", str(out),
        )
        payload = json.loads(stdout)
        assert payload["collapse_score"] == pytest.approx(
            payload["control_score_beta0"]
        )

    def test_needs_theta_source(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fss", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("dims", ["1", "50,50"])
    def test_fewer_than_two_dimensions_is_validation_error(self, capsys, tmp_path, dims):
        # one curve has no collapse score
        code, out, _ = run(
            capsys, "fss", "--rho", "0", "--n", dims, "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert json.loads(out) == {
            "error": "ValidationError",
            "message": f"fss needs two distinct dimensions --n, got {dims}"}
        assert not list(tmp_path.iterdir())

    def test_single_point_is_validation_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fss", "--rho", "0", "--points", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"

    @pytest.mark.parametrize("window", ["0", "-0.5", "1"])
    def test_window_outside_unit_interval_is_validation_error(self, capsys, tmp_path, window):
        code, out, _ = run(
            capsys, "fss", "--rho", "0", "--window", window, "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert "window" in payload["message"]
        assert not (tmp_path / "x.csv").exists()


class TestPsi:
    def test_single_m(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--k", "2", "--rho", "0.5", "--m", "2",
            "--n", "20", "--samples", "50000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == pytest.approx(2 / 3, abs=0.02)

    def test_vector(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--k", "3", "--rho", "0.1", "--n", "10",
            "--samples", "5000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == [2, 3]
        assert payload["stderr"][0] == 0.0

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command", ["count", "psi"])
    def test_rho_with_single_points_is_refused(self, capsys, tmp_path, command, where):
        # one point per multiplet has no overlap, so --k 1 reads no --rho
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho": 0.5}))
        given = ["--rho", "0.5"] if where == "flag" else ["--config", str(cfg)]
        argv = [command, "--k", "1", *given]
        if command == "count":
            argv += ["--n", "3", "--alpha", "1", "--out", str(tmp_path / "x.csv")]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {"error": "ValidationError",
                                   "message": "--rho needs --k >= 2, not 1"}
        assert [path.name for path in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("knobs", [["--k", "3"], ["--rho", "0.9"], ["--k", "3", "--rho", "0.9"]])
    @pytest.mark.parametrize("command", ["count", "psi"])
    def test_knobs_beside_a_config_spec_are_refused(self, capsys, tmp_path, command, knobs):
        # a full spec sets k and rho, so a flag for either would go unread
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"spec": {"k": 2, "rho": 0.5}}))
        rest = ["--n", "3", "--alpha", "1", "--out", str(tmp_path / "x.csv")]
        argv = [command, "--config", str(cfg), *(rest if command == "count" else [])]
        code, out, _ = run(capsys, *argv, *knobs)
        assert code == 1
        assert json.loads(out) == {
            "error": "ValidationError",
            "message": "a config 'spec' sets the structure: give no --k or --rho with it",
        }
        assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]
        # the spec alone runs
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("extra", [[], ["--m", "2"]])
    def test_single_points_are_refused(self, capsys, extra):
        code, out, _ = run(capsys, "psi", "--k", "1", *extra)
        assert code == 1
        assert json.loads(out) == {"error": "ValidationError",
                                   "message": "psi needs multiplets of k >= 2 points, got k=1"}

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("flag", ["--n", "--samples"])
    def test_nonpositive_size_is_refused_for_every_k(self, capsys, k, flag):
        code, out, _ = run(
            capsys, "psi", "--k", k, "--rho", "0.5", "--n", "10", "--samples", "10", flag, "0",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert flag in payload["message"]


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["transition", "--rho", "0"], "--seed"),
            (["transition", "--rho", "0"], "--threads"),
            (["transition", "--rho", "0"], "--trials"),
            (["fss", "--rho", "0"], "--seed"),
            (["fss", "--rho", "0"], "--threads"),
            (["fss", "--rho", "0"], "--trials"),
            (["psi", "--k", "2", "--rho", "0.5", "--samples", "10"], "--threads"),
            (["psi", "--k", "2", "--rho", "0.5", "--samples", "10"], "--trials"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value.strip("-"),
    )
    def test_flag_a_command_does_not_read_is_refused(self, capsys, command, flag):
        code, out, _ = run(capsys, *command, flag, "2")
        assert code == 1
        assert "unrecognized arguments" in json.loads(out)["message"]

    @pytest.mark.parametrize("command", ["count", "phase-diagram", "mc"])
    def test_sigma_budget_is_not_an_option(self, capsys, tmp_path, command):
        argv = [command, *SEEDED[command], "--out", str(tmp_path / "x")]
        code, out, _ = run(capsys, *argv, "--p-enum-max", "22")
        assert code == 1
        assert "unrecognized arguments: --p-enum-max 22" in json.loads(out)["message"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p_enum_max": 22}))
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert "unknown key 'p_enum_max'" in json.loads(out)["message"]
        assert [path.name for path in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize(
        "command, reason",
        [
            (["count", "--k", "1", "--n", "3", "--alpha", "nan"], "not a finite float"),
            (["count", "--k", "1", "--n", "a", "--alpha", "1"], "expected int, got 'a'"),
            (["phase-diagram", "--rho", "0", "--n-pairs", "4-3"], "expected int, got '4-3'"),
        ],
        ids=["alpha", "n", "n-pairs"],
    )
    def test_bad_flag_value_message_gives_the_reason(self, capsys, tmp_path, command, reason):
        code, out, _ = run(capsys, *command, "--out", str(tmp_path / "x"))
        assert code == 1
        message = json.loads(out)["message"]
        assert reason in message
        assert "invalid" not in message and "_parse" not in message and "lambda" not in message


class TestConfigFile:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho": 0.5, "method": "combinatorial"}))
        code, out, _ = run(capsys, "transition", "--config", str(cfg))
        assert code == 0
        base = json.loads(out)["alpha_star"]
        code, out, _ = run(capsys, "transition", "--config", str(cfg), "--rho", "0.8")
        assert code == 0
        assert json.loads(out)["alpha_star"] > base  # flag overrides file

    def test_null_config_value_means_unset(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta0": 0.5, "theta1": None}))
        code, out, _ = run(capsys, "transition", "--config", str(cfg))
        assert code == 0
        code, plain, _ = run(capsys, "transition", "--theta0", "0.5")
        assert json.loads(out) == json.loads(plain)

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, _ = run(capsys, "transition", "--config", str(cfg), "--rho", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "command, loaded",
        [
            (["count", "--k", "1", "--n", "3", "--alpha", "1"], {"seed": "abc"}),
            (["mc", "--rho", "0.5", "--alpha", "1"], {"trials": "x"}),
            (["phase-diagram", "--layers", "mc"], {"rho_grid": "0.5"}),
            (["fss", "--rho", "0"], {"plot_script": 5}),
        ],
    )
    def test_wrong_value_type_is_validation_error(self, capsys, tmp_path, command, loaded):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(loaded))
        code, out, _ = run(
            capsys, *command, "--config", str(cfg), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert next(iter(loaded)) in payload["message"]

    def test_numeric_strings_are_coerced(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": "7", "trials": "2", "alpha_grid": [1, "2"]}))
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "mc", "--config", str(cfg), "--rho", "0.5", "--threads", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "# seed = 7" in out.read_text()
        assert len(data_lines(out)) == 1 + 2

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_with_counts_must_be_boolean(self, capsys, tmp_path, value):
        # the boolean key is gone: `probe: "count"` asks for exact counts,
        # so any with_counts value is refused as an unknown key
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"with_counts": value}))
        code, out, _ = run(
            capsys, "mc", "--config", str(cfg), "--rho", "0.5", "--alpha", "1", "--trials", "2",
            "--threads", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == f"config file {cfg}: unknown key 'with_counts'"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["trails", "num-wieghts"])
    @pytest.mark.parametrize(
        "command",
        [
            ["mc", "--rho", "0.5", "--alpha", "1", "--trials", "2", "--threads", "1"],
            ["count", "--k", "1", "--n", "3", "--alpha", "1"],
        ],
    )
    def test_misspelt_key_is_refused(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 5}))
        out_csv = tmp_path / "x.csv"
        code, out, _ = run(capsys, *command, "--config", str(cfg), "--out", str(out_csv))
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert key in payload["message"]
        assert not out_csv.exists()

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "count", "--config", str(tmp_path / "absent.json"),
            "--k", "1", "--n", "3", "--alpha", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValidationError"


# A short valid run of every command that takes --seed.
SEEDED = {
    "count": ["--k", "1", "--n", "3", "--alpha", "1"],
    "phase-diagram": ["--rho", "0", "--layers", "annealed"],
    "mc": ["--rho", "0.5", "--alpha", "1", "--trials", "2", "--threads", "1"],
    "psi": ["--k", "2", "--rho", "0.5", "--samples", "10"],
}
TABLE = [(name, key) for name in sorted(COMMANDS) for key in COMMANDS[name].options]
# A config value of the wrong type for each kind of option.
WRONG = {"TEXT": 5}


class TestOptionTable:
    def test_every_seeded_command_is_listed(self):
        assert set(SEEDED) == {name for name, c in COMMANDS.items() if "seed" in c.options}

    def test_every_option_is_taken_by_a_command(self):
        # a config file accepts every key of the table, so no row may be orphaned
        assert set(OPTIONS) == {key for c in COMMANDS.values() for key in c.options}

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_is_validation_error(self, capsys, tmp_path, command):
        argv = [command, *SEEDED[command]]
        if "out" in COMMANDS[command].options:
            argv += ["--out", str(tmp_path / "x")]
        assert run(capsys, *argv, "--seed", "1")[0] == 0
        for path in tmp_path.iterdir():
            path.unlink()
        code, out, _ = run(capsys, *argv, "--seed", "-1")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert "seed" in payload["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", TABLE)
    def test_wrong_config_type_names_the_key(self, capsys, tmp_path, command, key):
        value = WRONG.get(OPTIONS[key].kind.name, "x")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, _ = run(capsys, command, "--config", str(cfg))
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert f"config value {key}=" in payload["message"]

    @pytest.mark.parametrize(
        "command, rule, bad",
        [("count", "0 or >= 2", 1), ("mc", ">= 1", 0), ("phase-diagram", ">= 1", 0)],
        ids=["count-0", "mc-1", "phase-diagram-1"],  # the lowest allowed value
    )
    def test_trials_minimum_per_command(self, capsys, tmp_path, command, rule, bad):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.search(rf"--trials INT [^;]*; {rule}; default", text)
        argv = [command, *SEEDED[command], "--trials", str(bad), "--out", str(tmp_path / "x")]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["message"] == f"trials (--trials) must be {rule}, got {bad}"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_table_flags(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.M)
        expected = ["--help", "--config"] + [OPTIONS[k].flag for k in COMMANDS[command].options]
        assert sorted(listed) == sorted(expected)


class TestParser:
    def test_help_and_an_unknown_command_list_every_command(self, capsys):
        listing = "{" + ",".join(COMMANDS) + "}"
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert listing in capsys.readouterr().out
        code, out, _ = run(capsys, "bogus")
        assert code == 1
        message = json.loads(out)["message"]
        assert message.startswith("argument command: invalid choice: 'bogus'")
        assert re.findall(r"'([\w-]+)'", message)[1:] == list(COMMANDS)

    def test_a_named_command_builds_its_parser_alone(self, capsys, monkeypatch):
        built = []
        inner = cli.build_parser

        def recording(names=COMMANDS):
            built.append(list(names))
            return inner(names)

        monkeypatch.setattr(cli, "build_parser", recording)
        assert run(capsys, "transition", "--rho", "0")[0] == 0
        with pytest.raises(SystemExit):
            main(["--version"])
        assert run(capsys, "--rho", "0")[0] == 1
        assert built == [["transition"], list(COMMANDS), list(COMMANDS)]


class TestThreadsDefault:
    def test_pooled_commands_default_to_the_usable_cpus(self, capsys):
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        assert cli._usable_cpus() == (usable or os.cpu_count() or 1)
        for command in ("phase-diagram", "mc"):
            assert COMMANDS[command].options["threads"] == cli._ALL_CORES == cli._usable_cpus()
        assert COMMANDS["count"].options["threads"] == 1
        with pytest.raises(SystemExit):
            main(["phase-diagram", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"--threads INT worker processes for the crossing tables and the "
                         rf"Monte Carlo trials; >= 1; default {cli._ALL_CORES}", text)

    def test_cpu_count_where_the_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert cli._usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1
