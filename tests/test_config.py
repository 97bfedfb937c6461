from pathlib import Path

import pytest

from mfgclab import config as config_module
from mfgclab.config import ConfigError, ExperimentConfig
from mfgclab.models import Model
from mfgclab.propagation import model_gate

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_validates_and_builds_its_model(path):
    cfg = ExperimentConfig.from_ini(path)
    if cfg.kind == "chain":
        return
    assert isinstance(cfg.model(), Model)
    if cfg.kind in ("mono", "propagate"):
        report = model_gate(cfg.model(), cfg.propagation())
        assert report.passed == (path.stem != "ll_negative_control")


def write_config(tmp_path, particles: str) -> Path:
    path = tmp_path / "exp.ini"
    path.write_text(f"""
[experiment]
kind = mono

[model]
family = ll_example

[particles]
{particles}

[monotonicity]
kind = ll
""")
    return path


def test_bad_particle_section_is_config_error(tmp_path):
    for particles in ("kind = atoms\nvalues =", "kind = atoms\nvalues = 0 nan 1", "n = 0"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_ini(write_config(tmp_path, particles))


def test_unrelated_exception_is_not_relabelled(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_ini(write_config(tmp_path, "n = 8"))

    def broken(*args, **kwargs):
        raise RuntimeError("a programming error")

    monkeypatch.setattr(config_module, "gaussian_quantile_cloud", broken)
    with pytest.raises(RuntimeError):
        cfg.initial_cloud()
    monkeypatch.setattr(config_module, "PropagationConfig", broken)
    with pytest.raises(RuntimeError):
        cfg.propagation()
