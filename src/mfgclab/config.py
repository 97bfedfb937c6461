"""Plain-text experiment configuration: INI sections of key = value pairs.

One experiment per file.  Everything an experiment needs — model family and
parameters, grid, particle count, Picard settings, monotonicity kind and
weights, direction battery, seed, tolerances — is validated here before any
solve starts.

Each ``[model] family`` is a preset of the one control-averaged model of
``models.py`` (numbers in parentheses are the defaults of absent keys; an
absent family is meanfield_1d, so an empty or absent section gives
H = -p^2/2):

    family        b0            f0                b1_x      B        f1_x                     q1  q2
    separable     (-1, 0, 0)    0                 0         0        f1_x                     q1  0
    ll_example    (1, 0, 0)     (0, 0, 0, c1)     b2_x      b1_mean  f1_x                     c2  c3
    disp_example  (1, 0, 0)     (0, 0, 0, c)      0         b1_mean  f1_x                     q1  q2
    anti_example  (1, 0, 0)     (0, 0, 0, c)      (0, -l0)  b1_mean  f1_x - gamma l0 x^2/2    q1  q2
    meanfield_1d  b0 (1 0 0)    f0 (0 0 0 0)      b1_x      b1_mean  f1_x                     q1  q2

c1 and c (0.5 by default) must satisfy 0 <= c < 1, the anti family needs
gamma > 0 and l0 > 0 (both 1 by default), and every model needs
df0/dm2 <= 1 - CONTRACTION_EPS.  Absent coefficients are zero; every
[model] and [terminal] coefficient must be finite, and so must [particles]
mean, sd, lo and hi.

A mono or propagate run takes its monotonicity kind from ``[monotonicity]
kind`` (ll by default), and a check run evaluates the gate of each kind named
in ``[check] which``.  ``monotonicity_kind()`` builds the kind object of
``propagation.MONOTONICITY_KINDS``, which reads these keys:

    kind  keys read                         verdict         gate
    ll    none                              value >= -tol   check_ll_condition
    disp  [monotonicity] lambda >= 0 (0)    value >= -tol   check_disp_condition
    anti  [monotonicity] lambda_vec         value <= tol    check_anti_assumption
          (l0 > 0, l1, l2 > 0, l3 >= 0);
          [anti] l0, gamma_lo, gamma_hi
          (gamma_hi > gamma_lo > 0), l_bar,
          lu_xx

``[check] which`` (envelope by default) may also name the checkers of
CHECKERS; an empty list or an unknown name is a ConfigError before any
check runs.  Each named checker runs once, in the order first named.
``matrix1``, the 3x3 coefficient matrix of the ll_example family, is read
as ``ll`` (ALIASES): the ll gate is that test on that family, and the
general test on every family.  Only older inputs name it; no shipped
config does.  Every gate and the disp_sufficient checker judge the same
``[check] samples`` (40) random laws of ``[check] atoms`` (16) (state,
momentum) atoms each, drawn from the experiment's seed: Gaussian states and
the momenta of alternating affine and clipped-polynomial feedbacks
(``conditions.make_condition_samples``).  fmon draws that many coupled
pairs of that size.  A propagate run of the anti kind also requires
|Vxx| <= lu_xx on the solved field.  An invalid kind parameter is a
ConfigError before any solve, and [monotonicity] lambda is range-checked
whatever the kind.  A propagate run's [monotonicity] force_gate (true) is a
configparser boolean word (1, yes, true, on or 0, no, false, off, in any
case); any other value is a ConfigError.  A mono run runs no gate: it reads
neither force_gate nor [check] samples and atoms, so any value of those
keys, valid or not, leaves it as it is.

The count keys are integers of at most MAX_COUNT (100000): [grid] n_x and
n_t, [particles] n, [picard] max_iter, [monotonicity] slices and
directions, [check] samples and atoms, and [chain] pairs and atoms.  A
larger one, or an auto n_t whose CFL step count is larger, is a ConfigError
before anything is allocated.  MAX_COUNT bounds each count alone, not the
n_t x n_x size of the value grid.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .measures import gaussian_quantile_cloud, uniform_grid_cloud
from .models import MeanPoly2, Model, ModelError, QuadraticTerminalCost
from .monotonicity import LambdaVec, MonotonicityError
from .propagation import MONOTONICITY_KINDS, PropagationConfig
from .solver import Grid, PicardSettings, SolverError

KINDS = ("check", "solve", "mono", "propagate", "chain")
# The largest value of a count key: far past desk scale, and small enough
# that every array shape it sets is valid.
MAX_COUNT = 100_000
# The [check] which names besides the monotonicity kinds, whose gates it runs.
CHECKERS = ("envelope", "disp_sufficient", "fmon")
# [check] which names read as another: matrix1, the 3x3 coefficient matrix
# of the ll_example family, is the ll gate on that family.
ALIASES = {"matrix1": "ll"}
# configparser's boolean words, lower case, and their values.
BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


class ConfigError(ValueError):
    pass


def _floats(text: str) -> tuple:
    """A list of finite numbers; a malformed or non-finite entry is a ConfigError."""
    try:
        values = tuple(float(v) for v in text.split())
    except ValueError as err:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from err
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"expected a list of finite numbers, got {text!r}")
    return values


def _number(sec: dict, key: str, default: str, cast=float, least=None):
    """One numeric INI value; a malformed, non-finite or out-of-range value is
    a ConfigError.  An int is a count, at most MAX_COUNT."""
    raw = sec.get(key, default)
    try:
        value = cast(raw)
    except ValueError as err:
        raise ConfigError(f"bad {key} = {raw!r}: {err}") from err
    # An int is finite, and one beyond int64 is no numpy scalar.
    if cast is int and value > MAX_COUNT:
        raise ConfigError(f"{key} must be at most {MAX_COUNT}, got {value}")
    if cast is float and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _preset(family: str, sec: dict) -> dict:
    """Model coefficients of one INI family; see the table in the module docstring."""
    def num(key: str, default: str = "0") -> float:
        return _number(sec, key, default)

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
        coeffs = _preset(sec.get("family", "meanfield_1d").strip(), sec)
        return Model(**coeffs, g=g if g is not None else QuadraticTerminalCost())
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"invalid model parameters: {err}") from err


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    raw: dict = field(repr=False)   # every INI section, by name

    @classmethod
    def from_ini(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = parser.read(path)
        except configparser.Error as err:  # duplicate key or section, no header
            raise ConfigError(f"malformed config file {path!r}: {err}") from err
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
        if seed < 0:
            raise ConfigError(f"seed must be at least 0, got {seed}")
        cfg = cls(kind=kind, seed=seed, raw=sections)
        cfg.validate()
        return cfg

    def section(self, name: str) -> dict:
        """The key = value pairs of INI section ``name``, empty when absent."""
        return self.raw.get(name, {})

    # -- builders ----------------------------------------------------------

    def terminal_cost(self) -> QuadraticTerminalCost:
        sec = self.section("terminal")
        return QuadraticTerminalCost(*(_number(sec, key, "0")
                                       for key in ("gxx", "gxm", "gx", "gm2")))

    def model(self) -> Model:
        return preset_model(self.section("model"), self.terminal_cost())

    def grid(self) -> Grid:
        """``[grid]``: the bounds x_min (-6), x_max (6), t0 (0) and t_end (1),
        n_x (121) points and n_t (auto, the CFL step count) steps; both
        counts are integers of at most MAX_COUNT, an auto n_t as well."""
        sec = self.section("grid")
        try:
            x_min = float(sec.get("x_min", "-6"))
            x_max = float(sec.get("x_max", "6"))
            n_x = _number(sec, "n_x", "121", int, 16)
            t0 = float(sec.get("t0", "0"))
            t_end = float(sec.get("t_end", "1"))
            if sec.get("n_t", "auto").strip() != "auto":
                return Grid(x_min, x_max, n_x, t0, t_end, _number(sec, "n_t", "auto", int, 8))
            grid = Grid.with_cfl_steps(x_min, x_max, n_x, t0, t_end)
            if grid.n_t > MAX_COUNT:
                raise ConfigError(f"n_t = auto needs {grid.n_t} CFL steps, "
                                  f"more than {MAX_COUNT}")
            return grid
        # ArithmeticError: a CFL step count whose float over- or underflows.
        except (ValueError, ArithmeticError, SolverError) as err:
            raise ConfigError(f"invalid grid: {err}") from err

    def initial_cloud(self) -> np.ndarray:
        """``[particles]``: n (16) atoms of the initial law by kind (gaussian):
        gaussian (mean 0, sd 1) quantiles, uniform on [lo, hi] (-1, 1) or atoms."""
        sec = self.section("particles")
        try:
            n = _number(sec, "n", "16", int, 1)
            kind = sec.get("kind", "gaussian").strip()
            if kind == "gaussian":
                return gaussian_quantile_cloud(n, _number(sec, "mean", "0"),
                                               _number(sec, "sd", "1"))
            if kind == "uniform":
                return uniform_grid_cloud(n, _number(sec, "lo", "-1"), _number(sec, "hi", "1"))
            if kind == "atoms":
                atoms = np.asarray(_floats(sec.get("values", "")))
                if atoms.size == 0:
                    raise ConfigError("atoms values must be a non-empty list")
                return atoms
        except ConfigError:
            raise
        except ValueError as err:  # includes MeasureError
            raise ConfigError(f"invalid particle section: {err}") from err
        raise ConfigError(f"unknown particle cloud kind {sec.get('kind')!r}")

    def picard(self) -> PicardSettings:
        """``[picard]``: max_iter (200) sweeps, tol (1e-9) on the W2 residual
        and damping (0.6), the weight of each new proposal in the Anderson
        mixing of ``solve_mfgc``; the mixing depth is not configurable."""
        sec = self.section("picard")
        try:
            return PicardSettings(
                max_iter=_number(sec, "max_iter", "200", int, 1),
                damping=float(sec.get("damping", "0.6")),
                tol=float(sec.get("tol", "1e-9")),
            )
        except (ValueError, SolverError) as err:
            raise ConfigError(f"invalid Picard settings: {err}") from err

    def lambda_vec(self) -> LambdaVec | None:
        raw = self.section("monotonicity").get("lambda_vec")
        if raw is None:
            return None
        values = _floats(raw)
        if len(values) != 4:
            raise ConfigError(f"lambda_vec needs 4 entries, got {len(values)}")
        return LambdaVec(*values)  # monotonicity_kind relabels its errors

    def lam(self) -> float:
        return _number(self.section("monotonicity"), "lambda", "0", least=0.0)

    def slices(self) -> int:
        return _number(self.section("monotonicity"), "slices", "5", int, 1)

    def check_sizes(self) -> tuple:
        """(samples, atoms): the number of the condition checkers' random
        laws and the atom count of each."""
        sec = self.section("check")
        return _number(sec, "samples", "40", int, 1), _number(sec, "atoms", "16", int, 2)

    def checkers(self) -> list:
        """The checkers of ``[check] which`` (envelope by default), each a
        monotonicity kind or one of CHECKERS, once each in the order first
        named, an alias of ALIASES read as the name it stands for; an empty
        list or an unknown name is a ConfigError."""
        names = self.section("check").get("which", "envelope").split()
        if not names:
            raise ConfigError("[check] which names no checker")
        for name in names:
            if name not in MONOTONICITY_KINDS and name not in CHECKERS and name not in ALIASES:
                raise ConfigError(f"unknown checker {name!r}; expected a monotonicity "
                                  f"kind {tuple(MONOTONICITY_KINDS)} or one of {CHECKERS}")
        return list(dict.fromkeys(ALIASES.get(name, name) for name in names))

    def anti_constants(self) -> tuple:
        """(l0, gamma_lo, gamma_hi, l_bar, lu_xx) of the anti-monotone assumption."""
        return tuple(_number(self.section("anti"), key, "0")
                     for key in ("l0", "gamma_lo", "gamma_hi", "l_bar", "lu_xx"))

    def chain_settings(self) -> tuple:
        """(pairs, atoms, tol) of the chain-rule check: the number of random
        laws, their atom count and the tolerance on every hat derivative,
        relative to max(1, max |Hhat|) over the law."""
        sec = self.section("chain")
        return (_number(sec, "pairs", "20", int, 1), _number(sec, "atoms", "16", int, 1),
                _number(sec, "tol", "1e-6", least=0.0))

    def monotonicity_kind(self, name: str | None = None):
        """The monotonicity kind object ``name`` (by default the
        [monotonicity] kind) with the parameters it reads; see the table in
        the module docstring."""
        if name is None:
            name = self.section("monotonicity").get("kind", "ll").strip()
        if name not in MONOTONICITY_KINDS:
            raise ConfigError(f"monotonicity kind must be one of "
                              f"{tuple(MONOTONICITY_KINDS)}, got {name!r}")
        try:
            return MONOTONICITY_KINDS[name].from_config(self)
        except MonotonicityError as err:
            raise ConfigError(f"invalid {name} kind: {err}") from err

    def propagation(self) -> PropagationConfig:
        """Settings of a mono or propagate run, whose direction battery and
        gate samples draw from the config's seed.  A mono run has no gate, so
        it reads neither [check] samples and atoms nor force_gate.  The
        fd_eps key of older configs is ignored: no finite-difference step is
        taken."""
        sec = self.section("monotonicity")
        samples, atoms, enforce = 0, 0, False
        if self.kind == "propagate":
            samples, atoms = self.check_sizes()
            force_gate = sec.get("force_gate", "true").strip().lower()
            if force_gate not in BOOLEANS:
                raise ConfigError(f"force_gate must be one of {tuple(BOOLEANS)}, "
                                  f"got {force_gate!r}")
            enforce = BOOLEANS[force_gate]
        return PropagationConfig(
            kind=self.monotonicity_kind(),
            n_directions=_number(sec, "directions", "12", int, 1),
            tol_c=_number(sec, "tol_c", "0.05", least=0.0),
            gate_samples=samples,
            gate_atoms=atoms,
            seed=self.seed,
            enforce_gate=enforce,
        )

    def validate(self) -> None:
        """Family constraints, admissible lambda weights, CFL and every
        numeric key the experiment's runner reads: all checked before any
        solve."""
        if self.kind in ("solve", "mono", "propagate"):
            self.model()
            self.grid()
            self.initial_cloud()
            self.picard()
        if self.kind in ("mono", "propagate"):
            self.propagation()
            self.lam()
        if self.kind == "mono":
            self.slices()
        if self.kind == "check":
            self.model()
            self.check_sizes()
            self.lam()
            self.anti_constants()
            for name in self.checkers():
                if name in MONOTONICITY_KINDS:
                    self.monotonicity_kind(name)
        if self.kind == "chain":
            self.model()
            self.chain_settings()
