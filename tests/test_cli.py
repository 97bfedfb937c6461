import configparser
import io
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mfgclab import calculus
from mfgclab.cli import main
from mfgclab.models import HatTable

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
fd_eps = 1e-3
tol_c = 0.05
{force}
[check]
samples = 20
atoms = 12
"""


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
        ("propagate", "monotonicity", "fd_eps", "0"),
        ("mono", "monotonicity", "fd_eps", "0"),
        ("check", "check", "samples", "forty"),
        ("propagate", "check", "samples", "0"),
        ("check", "check", "atoms", "1"),
        ("check", "anti", "l0", "big"),
        ("check", "check", "which", "anti"),            # no [monotonicity] lambda_vec
        ("anti_check", "anti", "gamma_lo", "0"),        # gamma_hi > gamma_lo > 0 fails
        ("anti_propagate", "anti", "gamma_lo", "0"),
        ("mono", "monotonicity", "kind", "bogus"),
        ("chain", "chain", "pairs", "many"),
        ("chain", "chain", "pairs", "0"),
        ("chain", "chain", "atoms", "0"),
        ("chain", "chain", "tol", "-1e-6"),
        ("chain", "model", "family", "nope"),
    ])
    def test_bad_runner_key_is_config_error(self, tmp_path, kind, section, key, value):
        cfg = tmp_path / "exp.ini"
        text = with_key(BASE_CONFIGS[kind], section, key, value)
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command_of(text), "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "report.json").exists()  # rejected before any run

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

    @pytest.mark.parametrize("name,code", [
        ("ll_mono", 0), ("ll_propagation", 0), ("ll_negative_control", 2),
        ("disp_propagation", 0), ("anti_propagation", 0),
    ])
    def test_kind_config_at_two_directions(self, tmp_path, name, code):
        text = with_key((CONFIGS / f"{name}.ini").read_text(), "monotonicity", "directions", "2")
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command_of(text), "--config", str(cfg), "--out", str(out)]) == code
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] is (code == 0)
        assert report["kind"] == name.split("_")[0]

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
        cfg = tmp_path / "exp.ini"
        cfg.write_text(small_model_block())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["propagate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["propagate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("trace.csv", "report.json", "plot.gp"):
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
