"""Every CSV artifact byte for byte against ``csv.writer`` (``reference_csv``),
on the values whose text is easiest to get wrong, and the verdict rule of
``ConditionReport.judge``."""
import json
from types import SimpleNamespace

import numpy as np
import pytest
from reference_csv import flow_csv, trace_csv, write_dict_rows, write_rows
from reference_traces import split
from test_cli import BASE_CONFIGS

from mfgclab import cli
from mfgclab.config import ExperimentConfig
from mfgclab.monotonicity import MonotonicityReport
from mfgclab.propagation import TRACE_COLUMNS, PropagationTraces, traces_to_csv
from mfgclab.reports import ConditionReport, _jsonable, write_csv
from mfgclab.solver import EquilibriumFlow, Grid, ValueField

# Exponent forms, a signed zero, the smallest subnormal, non-finite values,
# a shortest repr that is not the decimal expansion, and a plain number.
SPECIAL = (1e-05, 1e+16, -0.0, 5e-324, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 7.0)


def special_rows(levels, shift=0):
    """(levels, len(SPECIAL)) array whose rows cycle through SPECIAL."""
    return np.array([np.roll(SPECIAL, k + shift) for k in range(levels)])


def config(tmp_path, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(BASE_CONFIGS[name])
    return ExperimentConfig.from_ini(path)


class TestWriteCsv:
    def test_numbers_scalars_and_empty_strings_match_csv_writer(self, tmp_path):
        columns = ([*SPECIAL], [np.float64(v) for v in SPECIAL],
                   [np.int64(k) for k in range(-5, 5)], list(range(10)), [""] * 10,
                   ["level"] * 10)
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(tmp_path / "got.csv", header, columns)
        write_rows(tmp_path / "want.csv", header, zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_header_only_table(self, tmp_path):
        write_csv(tmp_path / "got.csv", ("a", "b"), ([], []))
        write_rows(tmp_path / "want.csv", ("a", "b"), [])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("text", ["a,b", 'say "x"', "cr\r", "lf\n"])
    def test_field_that_needs_quoting_raises(self, tmp_path, text):
        with pytest.raises(ValueError, match="needs quoting"):
            write_csv(tmp_path / "t.csv", ("a", "b"), ([1.0, 2.0], ["fine", text]))
        with pytest.raises(ValueError, match="needs quoting"):
            write_csv(tmp_path / "h.csv", ("a", text), ([1.0], [2.0]))


class TestArtifactsMatchCsvWriter:
    def test_flow_csv(self, tmp_path):
        levels, n = 3, len(SPECIAL)
        grid = Grid.with_cfl_steps(-1.0, 1.0, 16, 0.0, 0.1)
        ts = np.array([-0.0, 1e-05, 1e+16])
        flow = EquilibriumFlow(
            grid=grid, states=special_rows(levels), momenta=special_rows(levels, 1),
            controls=special_rows(levels, 2),
            value_field=ValueField(np.zeros((levels, grid.n_x)), grid.xs, ts),
            residual_history=[0.0], brownian=np.zeros((levels - 1, n)), seed=0)
        flow.to_csv(tmp_path / "got.csv")
        flow_csv(tmp_path / "want.csv", flow)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_trace_csv_with_and_without_xi(self, tmp_path):
        # One record per kind, each of two directions whose rows cycle
        # through SPECIAL.
        levels = len(SPECIAL)
        columns = np.stack([special_rows(8), special_rows(8, 3)], axis=1)
        for writes_xi in (False, True):
            traces = PropagationTraces(SimpleNamespace(writes_xi=writes_xi),
                                       np.linspace(0.0, 0.5, levels), *columns)
            # The slope columns difference the non-finite values.
            with np.errstate(invalid="ignore"):
                traces_to_csv(tmp_path / "got.csv", traces)
                trace_csv(tmp_path / "want.csv", split(traces), TRACE_COLUMNS)
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            lines = got.splitlines()
            assert len(lines) == 1 + 2 * levels
            for line in lines[1], lines[levels + 1]:
                assert (line.split(b",")[5] != b"") == writes_xi, writes_xi

    def test_samples_csv(self, tmp_path, monkeypatch):
        samples = [{"t": t, "level": np.int64(k), "direction": k % 3, "value": np.float64(v)}
                   for k, (t, v) in enumerate(zip(SPECIAL, reversed(SPECIAL)))]
        report = MonotonicityReport(kind="ll", samples=samples, minimum=0.0, tolerance=1.0,
                                    verdict=True)
        monkeypatch.setattr(cli, "monotonicity_sweep", lambda *args, **kwargs: report)
        assert cli.run_mono(config(tmp_path, "mono"), tmp_path) == cli.EXIT_OK
        write_dict_rows(tmp_path / "want.csv", cli.SAMPLE_COLUMNS, samples)
        assert ((tmp_path / "samples.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_chain_csv(self, tmp_path, monkeypatch):
        # One call checks every law; law k's errors are SPECIAL rolled by k.
        cfg = config(tmp_path, "chain")
        n_laws, n_atoms, _ = cfg.chain_settings()
        names = [f"h_{j}" for j in range(len(SPECIAL))]
        table, scales = special_rows(n_laws), 2.0 + np.arange(n_laws) / 3.0
        calls = []

        def stacked_check(model, x, p):
            calls.append(x.shape)
            return dict(zip(names, table.T)), scales

        monkeypatch.setattr(cli, "chain_rule_check", stacked_check)
        cli.run_chain(cfg, tmp_path)
        assert calls == [(n_laws, n_atoms)]
        rows = [{"law": k, "entry": name, "abs_error": table[k, j], "scale": scales[k]}
                for k in range(n_laws) for j, name in enumerate(names)]
        write_dict_rows(tmp_path / "want.csv", cli.CHAIN_COLUMNS, rows)
        assert (tmp_path / "chain.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_numpy_bools_dump_as_json_bools():
    payload = {"passed": np.bool_(True), "flags": [np.False_, np.float64(np.nan)]}
    assert json.dumps(_jsonable(payload)) == '{"passed": true, "flags": [false, null]}'


def unreachable(worst):
    raise AssertionError("a passing report builds no witness")


class TestJudge:
    @pytest.mark.parametrize("margins,worst", [
        ([1.0, -2.0, 0.5, -2.0], 1),                  # the first of equal minima
        ([1.0, -np.inf, np.nan, -3.0, np.nan], 2),    # a NaN before any number
        ([np.nan], 0),
    ])
    def test_worst_sample_is_the_first_minimum_a_nan_first(self, margins, worst):
        report = ConditionReport.judge("c", np.array(margins), 0.5,
                                       lambda k: {"sample": k}, details=lambda k: {"at": k})
        assert not report.passed
        assert report.witness == {"sample": worst} and report.details == {"at": worst}
        assert report.n_samples == len(margins) and report.tolerance == 0.5
        assert report.to_dict()["worst_margin"] == (None if np.isnan(margins[worst])
                                                    else margins[worst])

    @pytest.mark.parametrize("margin,slack,passed", [
        (0.0, 0.0, True), (-1e-300, 0.0, False), (-1e-12, 1e-12, True),
        (-2e-12, 1e-12, False), (np.inf, 0.0, True)])
    def test_passes_at_margin_at_least_minus_slack(self, margin, slack, passed):
        report = ConditionReport.judge("c", [3.0, margin], 0.0,
                                       unreachable if passed else lambda k: {"k": k}, slack)
        assert report.passed is passed
        assert report.worst_margin == min(3.0, margin)
        assert report.witness == (None if passed else {"k": 1})
        assert report.details == {}
