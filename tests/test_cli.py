import configparser
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mfgclab import calculus, cli, conditions
from mfgclab.cli import main
from mfgclab.models import HatTable
from mfgclab.propagation import MONOTONICITY_KINDS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def small_model_block(force_gate=None, c2="0.05"):
    force = f"force_gate = {force_gate}\n" if force_gate is not None else ""
    return f"""
[experiment]
kind = propagate
seed = 7

[model]
family = ll_example
c1 = 0.5
c2 = {c2}
c3 = 0.1
b1_mean = 0 0 0.75
f1_x = 0 0 0.125

[terminal]
gxx = 0.25
gxm = 0.1

[grid]
x_min = -6
x_max = 6
n_x = 61
t0 = 0
t_end = 0.2
n_t = auto

[particles]
n = 16
kind = gaussian
mean = 0
sd = 1

[picard]
max_iter = 200
damping = 0.6
tol = 1e-9

[monotonicity]
kind = ll
directions = 2
slices = 3
tol_c = 0.05
{force}
[check]
samples = 20
atoms = 12
"""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def with_key(text, section, key, value):
    """The INI text with one key of one section set to value."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


BASE_CONFIGS = {
    "propagate": small_model_block(),
    "mono": small_model_block().replace("kind = propagate", "kind = mono"),
    "check": "[experiment]\nkind = check\n[model]\nfamily = ll_example\n"
             "[check]\nwhich = ll\n"
             "[anti]\nl0 = 10.5\ngamma_lo = 0.5\ngamma_hi = 2.0\nl_bar = 1.0\nlu_xx = 1.0\n",
    "chain": "[experiment]\nkind = chain\n[chain]\npairs = 2\natoms = 4\n",
    "anti_propagate": (CONFIGS / "anti_propagation.ini").read_text(),
    "anti_check": with_key(with_key((CONFIGS / "anti_propagation.ini").read_text(),
                                    "experiment", "kind", "check"), "check", "which", "anti"),
}


# The exit code of every shipped config through the CLI.
SHIPPED_EXIT_CODES = {
    "anti_propagation": 0, "chain": 0, "disp_check": 0, "disp_propagation": 0,
    "disp_semi_negative_control": 2, "disp_semi_propagation": 0, "ll_check": 0,
    "ll_mono": 0, "ll_negative_control": 2, "ll_propagation": 0, "lq_solve": 0,
    "separable_check": 0,
}


# The (slope, formula) violation counts of each shipped mono and propagate
# config at its shipped size; a mono run's slope count is its failing samples.
SHIPPED_VIOLATIONS = {
    "anti_propagation": (0, 0), "disp_propagation": (0, 0),
    "disp_semi_negative_control": (12, 0), "disp_semi_propagation": (0, 0),
    "ll_mono": (0, 0), "ll_negative_control": (452, 0), "ll_propagation": (0, 0),
}


def command_of(text):
    """The [experiment] kind of an INI text, which is also its CLI command."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return parser["experiment"]["kind"]


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_kind_command_mismatch_is_config_error(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block())
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_bad_family_parameter_is_config_error(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block(c2="0.05").replace("c1 = 0.5", "c1 = 1.5"))
        assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command", ["propagate", "mono"])
    def test_single_atom_battery_is_config_error(self, tmp_path, capsys, command):
        # One particle leaves only the constant pair at the initial atom 0, so
        # a third direction cannot be drawn: a config error after the solve.
        text = small_model_block().replace("kind = propagate", f"kind = {command}")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key(with_key(text, "particles", "n", "1"),
                                "monotonicity", "directions", "3"))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error: cannot fill a battery of 3 directions" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_gate_failure_exits_3_before_solve(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block(c2="-0.2"))
        out = tmp_path / "out"
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] is False
        assert "gate" in report
        assert not (out / "trace.csv").exists()  # aborted before any solve

    def test_propagate_pass_exits_0(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block())
        out = tmp_path / "out"
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] is True
        assert (out / "trace.csv").exists()
        assert (out / "plot.gp").exists()

    def test_hypothesis_violation_exits_3(self, tmp_path):
        # f-monotonicity checker on a drift that is not the identity.
        cfg = tmp_path / "exp.ini"
        cfg.write_text("""
[experiment]
kind = check
seed = 1

[model]
family = ll_example
c1 = 0.5
c2 = 0.05
c3 = 0.1

[check]
which = fmon
samples = 5
atoms = 8
""")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("which,b1_mean", [
        ("fmon", "0 0 0.75"),              # drift is not the identity in the control
        ("disp_sufficient", "0 0 2"),      # c0 = 3 breaks Hhat_pp < -c0
    ])
    def test_hypothesis_failure_report_is_strict_json(self, tmp_path, which, b1_mean):
        text = with_key(with_key((CONFIGS / "ll_check.ini").read_text(),
                                 "check", "which", which), "model", "b1_mean", b1_mean)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["worst_margin"] is None
        assert report["reports"][0]["worst_margin"] is None
        assert report["reports"][0]["failure_kind"] == "hypothesis"

    def test_check_failure_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("""
[experiment]
kind = check
seed = 1

[model]
family = ll_example
c1 = 0.5
c2 = 0.03
c3 = 0.1
b1_mean = 0 0 0.75

[check]
which = matrix1 ll
samples = 20
atoms = 12
""")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_envelope_residual_exits_2(self, tmp_path):
        # H overflows at b0 = 1e200: the check fails on that sample instead
        # of raising, and the run still writes its report and manifest.
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nkind = check\n[model]\nb0 = 1e200 0 0\n"
                       "[check]\nwhich = envelope\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        (envelope,) = report["reports"]
        assert not envelope["passed"] and envelope["worst_margin"] is None
        assert envelope["witness"]["sample"] == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,which,code", [
        ("check", "ll", 2), ("check", "disp", 2), ("propagate", "ll", 3),
        ("propagate", "disp", 3)])
    def test_non_finite_gate_forms_fail_the_gate(self, tmp_path, command, which, code):
        # The hat table overflows at b0 = 1e200: the gate fails on law 0
        # with a null margin, where eigvalsh used to raise on its forms.
        text = with_key(with_key(BASE_CONFIGS[command], "model", "b0", "1e200 0 0"),
                        "model", "family", "meanfield_1d")
        section, key = ("check", "which") if command == "check" else ("monotonicity", "kind")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key(text, section, key, which))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        (gate,) = report["reports"] if command == "check" else [report["gate"]]
        assert not gate["passed"] and gate["worst_margin"] is None
        assert gate["witness"] == {"sample": 0, "value": None}
        assert (out / "manifest.json").exists()
        assert not (out / "trace.csv").exists()

    def test_overflowing_anti_gate_fails_its_bounds(self, tmp_path):
        # The same overflow fails the anti gate's |h_pp| bound on law 0
        # (exit 3), with no floating-point warning on the way.
        text = with_key(with_key(BASE_CONFIGS["anti_check"], "model", "b0", "1e200 0 0"),
                        "model", "family", "meanfield_1d")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        (gate,) = report["reports"]
        assert gate["failure_kind"] == "derivative_bounds"
        assert gate["witness"] == {"sample": 0, "bound": "abs_h_pp<=l_bar", "margin": None}

    @pytest.mark.parametrize("family,which,witness", [
        ("ll_example", "disp_sufficient", {"sample": 0, "value": None}),
        ("separable", "fmon", {"pair": 0, "value": None})])
    def test_overflowing_checker_fails_with_a_null_margin(self, tmp_path, family, which,
                                                          witness):
        # f1_x = 1e308 x^2 overflows: for disp_sufficient h_xx, so no law's
        # matrix is finite, where eigvalsh used to raise; for fmon the
        # running cost, so every pair's cross difference is inf - inf, which
        # used to pass with a null margin.  Either check fails on its first
        # sample with a null margin (exit 2).  A fresh interpreter runs it
        # with RuntimeWarning as an error.
        text = with_key((CONFIGS / "ll_check.ini").read_text(), "model", "family", family)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key(with_key(text, "model", "f1_x", "0 0 1e308"),
                                "check", "which", which))
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "mfgclab.cli", "check",
             "--config", str(cfg), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        (checked,) = report["reports"]
        assert not checked["passed"] and checked["failure_kind"] is None
        assert checked["worst_margin"] is None and report["worst_margin"] is None
        assert checked["witness"] == witness
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("entry", ["h_prho2", "h_pp"])
    def test_nan_disp_sufficient_bound_fails_its_hypothesis(self, tmp_path, monkeypatch,
                                                             entry):
        # A NaN entry of law 2 makes its bound NaN, which fails the
        # hypothesis (exit 3) where a ">" test let it pass.
        closed_form = conditions.hat_derivative_table

        def with_nan(model, x, p):
            table = closed_form(model, x, p)
            getattr(table, entry)[2] = np.nan
            return table

        monkeypatch.setattr(conditions, "hat_derivative_table", with_nan)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key((CONFIGS / "ll_check.ini").read_text(),
                                "check", "which", "disp_sufficient"))
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        (sufficient,) = report["reports"]
        assert sufficient["failure_kind"] == "hypothesis"
        assert sufficient["witness"] == {"sample": 2, "bound": entry, "value": None, "c0": 0.5}
        assert (out / "manifest.json").exists()

    def test_nan_report_margin_is_the_top_level_worst_margin(self, tmp_path):
        # matrix1 passes with a finite margin; the envelope check of the
        # overflowing b2_x has a NaN one, which the run's worst margin shows.
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key(with_key((CONFIGS / "ll_check.ini").read_text(),
                                         "model", "b2_x", "0 1e308"),
                                "check", "which", "matrix1 envelope"))
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        matrix1, envelope = report["reports"]
        assert matrix1["passed"] and matrix1["worst_margin"] > 0
        assert envelope["worst_margin"] is None
        assert report["worst_margin"] is None and report["all_passed"] is False

    @pytest.mark.parametrize("config,section,key,value", [
        ("lq_solve", "terminal", "gxx", "nan"),
        ("ll_check", "model", "c2", "inf"),
        ("ll_check", "model", "b1_mean", "0 0 -inf"),
        ("ll_check", "model", "b2_x", "0 nan"),
        ("anti_propagation", "model", "l0", "inf"),
        ("ll_propagation", "terminal", "gxm", "-inf"),
    ])
    def test_non_finite_coefficient_is_config_error(self, tmp_path, capsys, config,
                                                    section, key, value):
        # Rejected while reading the file, before any solve or check.
        text = with_key((CONFIGS / f"{config}.ini").read_text(), section, key, value)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command_of(text), "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIGS["check"])
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
        assert "config error: --seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model_block", [
        "family = separable\nq1 = 0.2\n",          # not control-coupled
        "family = ll_example\nc1 = 0\nc2 = 0.05\nc3 = 0.1\n",  # c1 outside (0, 1)
    ])
    def test_matrix1_on_unsupported_model_is_config_error(self, tmp_path, model_block):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[experiment]
kind = check
seed = 1

[model]
{model_block}
[check]
which = matrix1
""")
        out = tmp_path / "o"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("kind,section,key,value", [
        ("propagate", "monotonicity", "directions", "0"),
        ("propagate", "monotonicity", "directions", "two"),
        ("mono", "monotonicity", "slices", "five"),
        ("mono", "monotonicity", "slices", "0"),
        ("propagate", "monotonicity", "lambda", "-1"),
        ("check", "check", "samples", "forty"),
        ("propagate", "check", "samples", "0"),
        ("check", "check", "atoms", "1"),
        ("check", "anti", "l0", "big"),
        ("check", "check", "which", "anti"),            # no [monotonicity] lambda_vec
        ("check", "check", "which", ""),                # no checker at all
        ("check", "check", "which", "ll bogus"),        # unknown after a valid one
        ("anti_check", "anti", "gamma_lo", "0"),        # gamma_hi > gamma_lo > 0 fails
        ("anti_propagate", "anti", "gamma_lo", "0"),
        ("mono", "monotonicity", "kind", "bogus"),
        ("chain", "chain", "pairs", "many"),
        ("chain", "chain", "pairs", "0"),
        ("chain", "chain", "atoms", "0"),
        ("chain", "chain", "tol", "-1e-6"),
        ("chain", "model", "family", "nope"),
        ("propagate", "monotonicity", "tol_c", "-1"),
        ("propagate", "monotonicity", "tol_c", "inf"),
        ("propagate", "picard", "tol", "-1"),
        ("propagate", "grid", "t_end", "inf"),
        ("check", "experiment", "seed", "-3"),
        ("propagate", "experiment", "seed", "-1"),
        ("chain", "chain", "pairs", "1000000000000000000000000000000"),
        ("chain", "chain", "atoms", "100001"),
        ("check", "check", "samples", "100001"),
        ("check", "check", "atoms", "9223372036854775808"),
        ("propagate", "monotonicity", "directions", "100001"),
        ("mono", "monotonicity", "slices", "1" + "0" * 40),
        ("propagate", "grid", "n_x", "1" + "0" * 21),
        ("propagate", "grid", "n_t", "1" + "0" * 21),
        ("mono", "grid", "n_t", "100001"),
        ("propagate", "grid", "n_x", "100000"),         # its auto n_t is past MAX_COUNT
        ("propagate", "grid", "n_x", "1"),              # used to divide by zero
        ("propagate", "grid", "x_min", "6"),            # x_min = x_max, the same
        ("propagate", "grid", "t_end", "1e308"),        # an infinite CFL step count
        ("propagate", "particles", "n", "100001"),
        ("mono", "particles", "n", "1" + "0" * 21),
        ("propagate", "picard", "max_iter", "100001"),
        ("propagate", "picard", "max_iter", "0"),
    ])
    def test_bad_runner_key_is_config_error(self, tmp_path, kind, section, key, value):
        cfg = tmp_path / "exp.ini"
        text = with_key(BASE_CONFIGS[kind], section, key, value)
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command_of(text), "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()  # rejected while reading the file, before any run

    @pytest.mark.parametrize("text", [
        small_model_block().replace("[check]\n", "[check]\nsamples = 10\n"),  # key twice
        small_model_block() + "[check]\natoms = 8\n",                        # section twice
        "kind = propagate\n" + small_model_block(),                           # no header
    ], ids=["duplicate_key", "duplicate_section", "missing_header"])
    def test_malformed_ini_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_model_less_chain_checks_the_default_family(self, tmp_path):
        # No [model] section means meanfield_1d with its defaults, H = -p^2/2;
        # the shift_c key of older chain configs is ignored.
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nkind = chain\n[chain]\nshift_c = 0.5\n"
                       "pairs = 20\natoms = 16\ntol = 1e-6\n")
        out = tmp_path / "o"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True

    def test_fd_eps_of_older_configs_is_ignored(self, tmp_path):
        # No finite-difference step is taken: any fd_eps, even one that is no
        # step at all, leaves a mono run's artifacts as they are without it.
        base = BASE_CONFIGS["mono"]
        outs = []
        for name, text in [("absent", base)] + [
                (value, with_key(base, "monotonicity", "fd_eps", value))
                for value in ("0", "-1", "1e-3")]:
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(text)
            outs.append(tmp_path / name)
            assert main(["mono", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        for out in outs[1:]:
            for artifact in ("samples.csv", "report.json"):
                assert (out / artifact).read_bytes() == (outs[0] / artifact).read_bytes()

    def test_chain_tolerance_is_relative_to_hhat(self, tmp_path):
        # At df0/dm2 = 0.999, Hhat reaches ~6e3 and the central differences
        # of a correct model miss by ~5e-6 > tol; relative to Hhat they pass.
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nkind = chain\nseed = 7\n[model]\n"
                       "b0 = 0.8 0.3 -0.2\nf0 = 0.1 0.2 -0.3 0.999\n"
                       "[chain]\npairs = 4\natoms = 8\ntol = 1e-6\n")
        out = tmp_path / "o"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_abs_error"] > report["tolerance"]
        assert report["max_scaled_error"] <= report["tolerance"] < report["max_abs_error"]
        assert report["max_scale"] > 1e3

    def test_non_convergence_exits_4(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        text = small_model_block().replace("kind = propagate", "kind = solve")
        text = text.replace("max_iter = 200", "max_iter = 2")
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_non_finite_measure_derivative_exits_4(self, tmp_path, monkeypatch, capsys):
        # The access checks its matrices where it builds them: a non-finite
        # one is a solver error that names its level, not a traceback.
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_key(small_model_block(), "monotonicity", "directions", "2"))
        assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "not finite at level" in capsys.readouterr().err


class TestShippedConfigs:
    def test_check_config_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--config", str(CONFIGS / "ll_check.ini"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"]
        names = {r["condition"] for r in report["reports"]}
        assert names == {"envelope_identities", "coefficient_matrix_psd",
                         "lasry_lions_hamiltonian"}

    def test_anti_check_reads_the_check_samples(self, tmp_path):
        # The anti_example tables do not depend on the law, so only the
        # number of laws moves with [check] samples.
        reports = []
        for samples in ("5", "40"):
            cfg = tmp_path / f"anti{samples}.ini"
            cfg.write_text(with_key(BASE_CONFIGS["anti_check"], "check", "samples", samples))
            out = tmp_path / samples
            assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
            (report,) = json.loads((out / "report.json").read_text())["reports"]
            assert report["n_samples"] == int(samples)
            reports.append(report)
        assert reports[0]["details"] == reports[1]["details"]

    def test_chain_config_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["chain", "--config", str(CONFIGS / "chain.ini"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_abs_error"] <= 1e-6
        assert report["max_scaled_error"] <= report["max_abs_error"]
        assert (out / "chain.csv").read_text().startswith("law,entry,abs_error,scale\n")

    @pytest.mark.parametrize("entry", [f.name for f in fields(HatTable)])
    def test_chain_config_catches_a_sign_flip(self, tmp_path, monkeypatch, entry):
        # Every entry of the shipped model is nonzero, so negating any one of
        # them must fail the check.
        closed_form = calculus.hat_derivative_table

        def flipped(model, x, p):
            table = closed_form(model, x, p)
            return replace(table, **{entry: -getattr(table, entry)})

        monkeypatch.setattr(calculus, "hat_derivative_table", flipped)
        assert main(["chain", "--config", str(CONFIGS / "chain.ini"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                             ids=lambda p: f"{p.stem}-{SHIPPED_EXIT_CODES.get(p.stem)}")
    def test_kind_config_at_two_directions(self, tmp_path, path):
        # Every shipped config runs, the mono and propagate ones at two
        # directions; a config missing from the table fails here.
        code = SHIPPED_EXIT_CODES[path.stem]
        text = path.read_text()
        command = command_of(text)
        if command in ("mono", "propagate"):
            text = with_key(text, "monotonicity", "directions", "2")
        cfg = tmp_path / path.name
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        if command in ("mono", "propagate"):
            report = json.loads((out / "report.json").read_text())
            assert report["verdict"] is (code == 0)
            assert report["kind"] == path.stem.split("_")[0]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
    def test_shipped_size_exit_code_and_violation_counts(self, tmp_path, path):
        # Every shipped config as shipped: its exit code and, for mono and
        # propagate, its violation counts.
        text = path.read_text()
        out = tmp_path / "out"
        assert main([command_of(text), "--config", str(path), "--out", str(out)]) \
            == SHIPPED_EXIT_CODES[path.stem]
        report = json.loads((out / "report.json").read_text())
        if "slope_violations" in report:
            counts = len(report["slope_violations"]), len(report["formula_violations"])
        elif "samples" in report:
            sign = MONOTONICITY_KINDS[report["kind"]].sign
            counts = sum(sign * s["value"] < -report["tolerance"]
                         for s in report["samples"]), 0
        else:
            assert path.stem not in SHIPPED_VIOLATIONS
            return
        assert counts == SHIPPED_VIOLATIONS[path.stem]

    def test_solve_config_passes_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(CONFIGS / "lq_solve.ini"),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "solve"
        assert manifest["seed"] == 42
        assert set(manifest["artifacts"]) >= {"flow.csv", "report.json", "plot.gp"}


class TestDeterminism:
    def test_reruns_are_byte_identical_outside_manifest(self, tmp_path):
        for command, table in (("propagate", "trace.csv"), ("solve", "flow.csv"),
                               ("mono", "samples.csv")):
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(small_model_block().replace("kind = propagate", f"kind = {command}"))
            out1 = tmp_path / command / "a"
            out2 = tmp_path / command / "b"
            assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
            assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
            assert {p.name for p in out1.iterdir()} == {table, "report.json", "plot.gp",
                                                        "manifest.json"}
            for name in (table, "report.json", "plot.gp"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block())
        out = tmp_path / "o"
        assert main(["propagate", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_seed_flag_reaches_gate_samples_and_battery(self, tmp_path):
        # --seed 99 on a seed = 7 config runs exactly the seed = 99 config.
        text = with_key(small_model_block(), "monotonicity", "directions", "4")
        flagged, written = tmp_path / "flagged.ini", tmp_path / "written.ini"
        flagged.write_text(text)
        written.write_text(with_key(text, "experiment", "seed", "99"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["propagate", "--config", str(flagged), "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["propagate", "--config", str(written), "--out", str(out2)]) == 0
        for name in ("trace.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_jobs_flag_does_not_change_mono_results(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        text = small_model_block().replace("kind = propagate", "kind = mono")
        cfg.write_text(text)
        out1 = tmp_path / "j1"
        out2 = tmp_path / "j4"
        assert main(["mono", "--config", str(cfg), "--out", str(out1),
                     "--jobs", "1"]) == 0
        assert main(["mono", "--config", str(cfg), "--out", str(out2),
                     "--jobs", "4"]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


class TestManifest:
    def test_git_describe_spawns_once_per_process(self, tmp_path, monkeypatch):
        # Every main call writes the revision to its manifest; git runs once.
        real_run, commands = subprocess.run, []

        def recording_run(args, **kwargs):
            commands.append(args)
            return real_run(args, **kwargs)

        monkeypatch.setattr(subprocess, "run", recording_run)
        cli._git_describe.cache_clear()
        cfg = tmp_path / "chain.ini"
        cfg.write_text(BASE_CONFIGS["chain"])
        revisions = []
        for name in ("a", "b"):
            assert main(["chain", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            revisions.append(json.loads((tmp_path / name / "manifest.json").read_text())
                             ["revision"])
        assert commands == [["git", "describe", "--always", "--dirty"]]
        assert revisions[0] == revisions[1]
