"""Plain-text experiment configuration: INI sections of key = value pairs.

One experiment per file.  Everything an experiment needs — model family and
parameters, grid, particle count, Picard settings, monotonicity kind and
weights, direction battery, seed, tolerances — is validated here before any
solve starts.

Each ``[model] family`` is a preset of the one control-averaged model of
``models.py`` (numbers in parentheses are the defaults of absent keys):

    family        b0            f0                b1_x      B        f1_x                     q1  q2
    separable     (-1, 0, 0)    0                 0         0        f1_x                     q1  0
    ll_example    (1, 0, 0)     (0, 0, 0, c1)     b2_x      b1_mean  f1_x                     c2  c3
    disp_example  (1, 0, 0)     (0, 0, 0, c)      0         b1_mean  f1_x                     q1  q2
    anti_example  (1, 0, 0)     (0, 0, 0, c)      (0, -l0)  b1_mean  f1_x - gamma l0 x^2/2    q1  q2
    meanfield_1d  b0 (1 0 0)    f0 (0 0 0 0)      b1_x      b1_mean  f1_x                     q1  q2

c1 and c (0.5 by default) must satisfy 0 <= c < 1, the anti family needs
gamma > 0 and l0 > 0 (both 1 by default), and every model needs
df0/dm2 <= 1 - CONTRACTION_EPS.  Absent coefficients are zero.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure, gaussian_quantile_cloud, uniform_grid_cloud
from .models import MeanPoly2, Model, ModelError, QuadraticTerminalCost
from .monotonicity import LambdaVec, MonotonicityError
from .propagation import GateError, PropagationConfig
from .solver import Grid, PicardSettings, SolverError

KINDS = ("check", "solve", "mono", "propagate", "chain")


class ConfigError(ValueError):
    pass


def _floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split())
    except ValueError as err:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from err


def _preset(family: str, sec: dict) -> dict:
    """Model coefficients of one INI family; see the table in the module docstring."""
    def num(key: str, default: str = "0") -> float:
        return float(sec.get(key, default))

    def poly(key: str, default: str = "0") -> tuple:
        return _floats(sec.get(key, default))

    if family == "separable":
        return dict(b0=(-1.0, 0.0, 0.0), f1_x=poly("f1_x"), q1=num("q1"))
    B = MeanPoly2(poly("b1_mean"))
    if family == "meanfield_1d":
        return dict(b0=poly("b0", "1 0 0"), f0=poly("f0", "0 0 0 0"), b1_x=poly("b1_x"),
                    B=B, f1_x=poly("f1_x"), q1=num("q1"), q2=num("q2"))
    f1_x, b1_x = poly("f1_x"), (0.0,)
    if family == "ll_example":
        c, b1_x, q1, q2 = num("c1", "0.5"), poly("b2_x"), num("c2"), num("c3")
    elif family in ("disp_example", "anti_example"):
        c, q1, q2 = num("c", "0.5"), num("q1"), num("q2")
    else:
        raise ConfigError(f"unknown model family {family!r}")
    if family == "anti_example":
        gamma, l0 = num("gamma", "1"), num("l0", "1")
        if gamma <= 0 or l0 <= 0:
            raise ModelError("anti-monotone family needs gamma > 0 and l0 > 0")
        b1_x = (0.0, -l0)
        f1_x = f1_x + (0.0,) * (3 - len(f1_x))
        f1_x = f1_x[:2] + (f1_x[2] - 0.5 * gamma * l0,) + f1_x[3:]
    if not 0.0 <= c < 1.0:
        raise ModelError(f"control-averaging weight must satisfy 0 <= c < 1, got {c}")
    return dict(b0=(1.0, 0.0, 0.0), f0=(0.0, 0.0, 0.0, c), b1_x=b1_x, B=B, f1_x=f1_x,
                q1=q1, q2=q2)


def preset_model(sec: dict, g: QuadraticTerminalCost | None = None) -> Model:
    """The model of one ``[model]`` section, with terminal cost g."""
    try:
        coeffs = _preset(sec.get("family", "").strip(), sec)
        return Model(**coeffs, g=g if g is not None else QuadraticTerminalCost())
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"invalid model parameters: {err}") from err


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    raw: dict = field(repr=False)
    model_section: dict = field(repr=False)
    terminal_section: dict = field(repr=False)
    grid_section: dict = field(repr=False)
    particle_section: dict = field(repr=False)
    picard_section: dict = field(repr=False)
    mono_section: dict = field(repr=False)
    anti_section: dict = field(repr=False)
    check_section: dict = field(repr=False)
    chain_section: dict = field(repr=False)

    @classmethod
    def from_ini(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
        exp = sections.get("experiment", {})
        kind = exp.get("kind", "").strip()
        if kind not in KINDS:
            raise ConfigError(f"experiment kind must be one of {KINDS}, got {kind!r}")
        try:
            seed = int(exp.get("seed", "0"))
        except ValueError as err:
            raise ConfigError(f"bad seed {exp.get('seed')!r}") from err
        cfg = cls(
            kind=kind, seed=seed, raw=sections,
            model_section=sections.get("model", {}),
            terminal_section=sections.get("terminal", {}),
            grid_section=sections.get("grid", {}),
            particle_section=sections.get("particles", {}),
            picard_section=sections.get("picard", {}),
            mono_section=sections.get("monotonicity", {}),
            anti_section=sections.get("anti", {}),
            check_section=sections.get("check", {}),
            chain_section=sections.get("chain", {}),
        )
        cfg.validate()
        return cfg

    # -- builders ----------------------------------------------------------

    def terminal_cost(self) -> QuadraticTerminalCost:
        sec = self.terminal_section
        try:
            return QuadraticTerminalCost(
                xx=float(sec.get("gxx", "0")), xm=float(sec.get("gxm", "0")),
                x_lin=float(sec.get("gx", "0")), m2=float(sec.get("gm2", "0")),
            )
        except ValueError as err:
            raise ConfigError(f"bad terminal cost entry: {err}") from err

    def model(self) -> Model:
        return preset_model(self.model_section, self.terminal_cost())

    def grid(self) -> Grid:
        sec = self.grid_section
        try:
            x_min = float(sec.get("x_min", "-6"))
            x_max = float(sec.get("x_max", "6"))
            n_x = int(sec.get("n_x", "121"))
            t0 = float(sec.get("t0", "0"))
            t_end = float(sec.get("t_end", "1"))
            n_t_raw = sec.get("n_t", "auto").strip()
            if n_t_raw == "auto":
                return Grid.with_cfl_steps(x_min, x_max, n_x, t0, t_end)
            return Grid(x_min, x_max, n_x, t0, t_end, int(n_t_raw))
        except (ValueError, SolverError) as err:
            raise ConfigError(f"invalid grid: {err}") from err

    def initial_cloud(self) -> EmpiricalMeasure:
        sec = self.particle_section
        try:
            n = int(sec.get("n", "16"))
            kind = sec.get("kind", "gaussian").strip()
            if kind == "gaussian":
                return gaussian_quantile_cloud(n, float(sec.get("mean", "0")),
                                               float(sec.get("sd", "1")))
            if kind == "uniform":
                return uniform_grid_cloud(n, float(sec.get("lo", "-1")),
                                          float(sec.get("hi", "1")))
            if kind == "atoms":
                atoms = np.asarray(_floats(sec.get("values", "")))
                return EmpiricalMeasure(atoms[:, None], None)  # uniform weights
        except ConfigError:
            raise
        except ValueError as err:  # includes MeasureError
            raise ConfigError(f"invalid particle section: {err}") from err
        raise ConfigError(f"unknown particle cloud kind {sec.get('kind')!r}")

    def picard(self) -> PicardSettings:
        sec = self.picard_section
        try:
            return PicardSettings(
                max_iter=int(sec.get("max_iter", "200")),
                damping=float(sec.get("damping", "0.6")),
                tol=float(sec.get("tol", "1e-9")),
            )
        except (ValueError, SolverError) as err:
            raise ConfigError(f"invalid Picard settings: {err}") from err

    def lambda_vec(self) -> LambdaVec | None:
        raw = self.mono_section.get("lambda_vec")
        if raw is None:
            return None
        values = _floats(raw)
        if len(values) != 4:
            raise ConfigError(f"lambda_vec needs 4 entries, got {len(values)}")
        try:
            return LambdaVec(*values)
        except MonotonicityError as err:
            raise ConfigError(str(err)) from err

    def propagation(self) -> PropagationConfig:
        sec = self.mono_section
        anti = self.anti_section
        kind = sec.get("kind", "ll").strip()
        try:
            return PropagationConfig(
                kind=kind,
                lam=float(sec.get("lambda", "0")),
                lvec=self.lambda_vec() if kind == "anti" else None,
                n_directions=int(sec.get("directions", "12")),
                fd_eps=float(sec.get("fd_eps", "1e-3")),
                tol_c=float(sec.get("tol_c", "0.05")),
                gate_samples=int(self.check_section.get("samples", "40")),
                gate_atoms=int(self.check_section.get("atoms", "16")),
                seed=self.seed,
                enforce_gate=sec.get("force_gate", "true").strip().lower() != "false",
                anti_l0=float(anti.get("l0", "0")),
                anti_gamma_lo=float(anti.get("gamma_lo", "0")),
                anti_gamma_hi=float(anti.get("gamma_hi", "0")),
                anti_l_bar=float(anti.get("l_bar", "0")),
                anti_lu_xx=float(anti.get("lu_xx", "0")),
            )
        except ConfigError:
            raise
        except (ValueError, GateError) as err:
            raise ConfigError(f"invalid monotonicity section: {err}") from err

    def validate(self) -> None:
        """Family constraints, admissible lambda weights, CFL: all checked
        before any solve."""
        if self.kind in ("solve", "mono", "propagate"):
            self.model()
            self.grid()
            self.initial_cloud()
            self.picard()
        if self.kind in ("mono", "propagate"):
            mono_kind = self.mono_section.get("kind", "ll").strip()
            if mono_kind not in ("ll", "disp", "anti"):
                raise ConfigError(f"unknown monotonicity kind {mono_kind!r}")
            if mono_kind == "anti":
                if self.lambda_vec() is None:
                    raise ConfigError("anti experiments need lambda_vec")
                if not self.anti_section:
                    raise ConfigError("anti experiments need an [anti] section")
            lam = float(self.mono_section.get("lambda", "0"))
            if lam < 0:
                raise ConfigError("lambda must be nonnegative")
        if self.kind == "check":
            self.model()
        if self.kind == "chain":
            float(self.chain_section.get("shift_c", "0.5"))
