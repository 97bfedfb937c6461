"""Mean field games of controls: one control-averaged coefficient model.

Every model sees the joint law nu of (state, control) only through its two
means m1 = E_nu[xi] and m2 = E_nu[alpha]:

    b(x, a, nu) = -B0(x, m1) a + b1_x(x) + B(m1, m2),
    f(x, a, nu) = a^2/2 - a f0(x, m1, m2) + f1_x(x) + x (q1 m1 + q2 m2),
    g(x, mu)    = (gxx/2) x^2 + gxm x E_mu[xi] + gx x + gm2 E_mu[xi]^2,

with B0 = b0c + b0x x + b0m m1, f0 = f0c + f0x x + f0mu m1 + f0m m2, b1_x and
f1_x polynomials in x, and B a polynomial of total degree <= 2 in (m1, m2).
Everything is in closed form, vectorised over (x, p) arrays and the moments:

- the minimiser a* = f0 + p B0 of a -> p b + f, and the Hamiltonian
  H = -a*^2/2 + p (b1_x + B) + f1_x + x (q1 m1 + q2 m2), with H_p = b(x, a*);
- the control-law fixed point Phi mapping a (state, momentum) law rho to the
  consistent (state, control) law.  Its control mean solves a linear
  equation, well posed while f0m <= 1 - CONTRACTION_EPS;
- the derivatives of the reduced Hamiltonian Hhat(x, p, rho) = H(x, p, Phi(rho)).

States and controls are one-dimensional; laws are uniform particle clouds
given by their atoms.  The INI families of ``config.py`` are presets; an
absent family is meanfield_1d:

    family        b0          f0             b1_x      B        f1_x                    q1  q2
    separable     (-1, 0, 0)  0              0         0        f1_x                    q1  0
    ll_example    (1, 0, 0)   (0, 0, 0, c1)  b2_x      b1_mean  f1_x                    c2  c3
    disp_example  (1, 0, 0)   (0, 0, 0, c)   0         b1_mean  f1_x                    q1  q2
    anti_example  (1, 0, 0)   (0, 0, 0, c)   (0, -l0)  b1_mean  f1_x - gamma l0 x^2/2   q1  q2
    meanfield_1d  b0          f0             b1_x      b1_mean  f1_x                    q1  q2
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .reports import ConditionReport

# Relative step of the central difference in p that checks H_p against H.
FD_STEP_POINT = 1e-5
# The control-law fixed point needs df0/dm2 <= 1 - CONTRACTION_EPS.
CONTRACTION_EPS = 1e-3


class ModelError(ValueError):
    """Raised for ill-posed model coefficients."""


def _coeffs(values) -> tuple:
    """Float polynomial coefficients, lowest degree first, trailing zeros dropped."""
    c = [float(v) for v in values]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c) or (0.0,)


def _poly(coeffs: tuple, x):
    """Horner evaluation of sum_k coeffs[k] x^k; a float for a constant polynomial."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _der(coeffs: tuple) -> tuple:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs))) or (0.0,)


@dataclass(frozen=True)
class MeanPoly2:
    """Polynomial in the pair of means (m1, m2), total degree <= 2.

    Coefficient order: 1, m1, m2, m1^2, m1*m2, m2^2.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) < 6:
            c = c + (0.0,) * (6 - len(c))
        if len(c) != 6:
            raise ModelError(f"MeanPoly2 takes at most 6 coefficients, got {len(c)}")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, m1, m2):
        c = self.coeffs
        return c[0] + c[1] * m1 + c[2] * m2 + c[3] * m1 * m1 + c[4] * m1 * m2 + c[5] * m2 * m2

    def d_m1(self, m1, m2):
        c = self.coeffs
        return c[1] + 2.0 * c[3] * m1 + c[4] * m2

    def d_m2(self, m1, m2):
        c = self.coeffs
        return c[2] + c[4] * m1 + 2.0 * c[5] * m2

    @classmethod
    def zero(cls) -> "MeanPoly2":
        return cls((0.0,))


@dataclass(frozen=True)
class QuadraticTerminalCost:
    """g(x, mu) = (xx/2) x^2 + xm * x * E_mu[xi] + x_lin * x + m2 * E_mu[xi]^2."""

    xx: float = 0.0
    xm: float = 0.0
    x_lin: float = 0.0
    m2: float = 0.0

    def __call__(self, x, atoms: np.ndarray):
        """g at the points x against the uniform cloud of the 1-D atoms."""
        xv = np.asarray(x, dtype=float)
        m1 = atoms @ np.full(atoms.size, 1.0 / atoms.size)
        return 0.5 * self.xx * xv**2 + self.xm * xv * m1 + self.x_lin * xv + self.m2 * m1 * m1

    def d_m1(self, x, m1):
        """dg/dE_mu[xi] at the points x, for a cloud of mean m1."""
        return self.xm * np.asarray(x, dtype=float) + 2.0 * self.m2 * m1


@dataclass(frozen=True)
class HatTable:
    """Hat derivatives over the atoms of one (state, momentum) law.

    Per-atom arrays have shape (n,); the measure-derivative entries are
    (n, n) with [i, j] = derivative at base atom i, support atom j.  A table
    of a stack of laws has the stack's leading axes in front.
    """

    h_p: np.ndarray
    h_pp: np.ndarray
    h_xx: np.ndarray
    h_xp: np.ndarray
    h_xrho1: np.ndarray
    h_xrho2: np.ndarray
    h_prho1: np.ndarray
    h_prho2: np.ndarray

    def __getitem__(self, index) -> HatTable:
        """The table of the laws at ``index`` of the leading axes."""
        return HatTable(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class Model:
    """Coefficients of the control-averaged model; see the module docstring.

    b0 = (b0c, b0x, b0m), f0 = (f0c, f0x, f0mu, f0m); b1_x and f1_x list
    polynomial coefficients, lowest degree first.
    """

    b0: tuple = (1.0, 0.0, 0.0)
    f0: tuple = (0.0, 0.0, 0.0, 0.0)
    b1_x: tuple = (0.0,)
    B: MeanPoly2 = MeanPoly2.zero()
    f1_x: tuple = (0.0,)
    q1: float = 0.0
    q2: float = 0.0
    g: QuadraticTerminalCost = QuadraticTerminalCost()

    def __post_init__(self):
        b0 = tuple(float(v) for v in self.b0)
        f0 = tuple(float(v) for v in self.f0)
        if len(b0) != 3 or len(f0) != 4:
            raise ModelError(f"b0 takes 3 and f0 takes 4 coefficients, got {len(b0)} and {len(f0)}")
        if f0[3] > 1.0 - CONTRACTION_EPS:
            raise ModelError(
                f"contraction bound violated: df0/dm = {f0[3]} > 1 - {CONTRACTION_EPS}")
        for name, value in (("b0", b0), ("f0", f0), ("b1_x", _coeffs(self.b1_x)),
                            ("f1_x", _coeffs(self.f1_x)), ("q1", float(self.q1)),
                            ("q2", float(self.q2))):
            object.__setattr__(self, name, value)

    def control(self, x, p, m1, m2):
        """The minimiser a* = f0(x, m1, m2) + p B0(x, m1) of a -> p b + f."""
        a0, b0, _ = drift_terms(self, x, mean_terms(self, m1, m2))
        return a0 + p * b0

    def drift(self, x, a, m1, m2):
        b0c, b0x, b0m = self.b0
        return -(b0c + b0m * m1 + b0x * x) * a + _poly(self.b1_x, x) + self.B(m1, m2)

    def cost(self, x, a, m1, m2):
        f0c, f0x, f0mu, f0m = self.f0
        return (0.5 * a * a - a * (f0c + f0mu * m1 + f0m * m2 + f0x * x)
                + _poly(self.f1_x, x) + x * (self.q1 * m1 + self.q2 * m2))


def mean_terms(model: Model, m1, m2) -> tuple:
    """The parts of the Hamiltonian's p-independent terms that depend on the
    means (m1, m2) alone: (f0c + f0mu m1 + f0m m2, b0c + b0m m1, B(m1, m2),
    q1 m1 + q2 m2).  ``drift_terms`` and ``hamiltonian_terms`` add the parts
    that depend on x; a sweep computes these once for all levels."""
    b0c, _, b0m = model.b0
    f0c, _, f0mu, f0m = model.f0
    return (f0c + f0mu * m1 + f0m * m2, b0c + b0m * m1, model.B(m1, m2),
            model.q1 * m1 + model.q2 * m2)


def _affine(const, slope: float, x):
    """const + slope x; const itself when the slope is 0, so that a term
    that does not depend on x keeps the shape of the means."""
    return const + slope * x if slope else const


def drift_terms(model: Model, x, means: tuple) -> tuple:
    """(A, B0, C) at the points x, for the ``mean_terms`` of (m1, m2):
    A = f0(x, m1, m2), B0 = B0(x, m1) and C = b1_x(x) + B(m1, m2), so that
    a* = A + p B0 and H_p = -B0 a* + C.  A term whose x-part vanishes is not
    broadcast against x."""
    a_m, b_m, big_b, _ = means
    return (_affine(a_m, model.f0[1], x), _affine(b_m, model.b0[1], x),
            _poly(model.b1_x, x) + big_b)


def hamiltonian_terms(model: Model, x, means: tuple) -> tuple:
    """The p-independent terms (A, B0, C, D1, Q) of the Hamiltonian at the
    points x, for the ``mean_terms`` of (m1, m2):

        a* = A + p B0,  H = -a*^2/2 + p C + D1 + x Q,  H_p = -B0 a* + C,

    with (A, B0, C) the ``drift_terms``, D1 = f1_x(x) and Q = q1 m1 + q2 m2.
    H sums its terms left to right in this order.  Q keeps the shape of the
    means, so a caller over a grid of x and many levels of means forms the
    product x Q only where it needs it.
    """
    return (*drift_terms(model, x, means), _poly(model.f1_x, x), means[3])


def hamiltonian(model: Model, x, p, m1, m2):
    """H(x, p, nu) = inf_a [p b(x, a, nu) + f(x, a, nu)] for nu with means (m1, m2)."""
    a0, b0, c, d1, q = hamiltonian_terms(model, x, mean_terms(model, m1, m2))
    # a * a: on a Python float, a ** 2 is libm's pow, which can round otherwise.
    a = a0 + p * b0
    return -0.5 * (a * a) + p * c + d1 + x * q


def hamiltonian_dp(model: Model, x, p, means: tuple):
    """dH/dp = b(x, a*, nu), the optimal drift, for the ``mean_terms`` of
    the means (m1, m2) of nu.

    Nothing in the package calls it: the solver's push writes the same
    drift as affine in p, -B0^2 p + (C - A B0), and its tests compare the
    push against this closed form up to round-off.  It stays as that oracle
    and because perfbench traces it as the model-layer boundary
    ``models.hamiltonian_dp``, which the benchmark's contract test requires
    to exist, as it does ``solver.terminal_field``."""
    a0, b0, c = drift_terms(model, x, means)
    return -b0 * (a0 + p * b0) + c


@dataclass(frozen=True)
class HamiltonianPartials:
    """First partial derivatives of H and of H_p at points (x, p) and means
    (m1, m2), broadcast against each other."""

    h_p: np.ndarray
    h_m1: np.ndarray
    h_m2: np.ndarray
    hp_x: np.ndarray
    hp_p: np.ndarray
    hp_m1: np.ndarray
    hp_m2: np.ndarray


def hamiltonian_partials(model: Model, x, p, m1, m2) -> HamiltonianPartials:
    """H_p, dH/dm1, dH/dm2 and the partials of H_p in x, p, m1 and m2.

    With (A, B0, C) the ``drift_terms`` and a* = A + p B0: H = -a*^2/2 + p C
    + f1_x(x) + x (q1 m1 + q2 m2) and H_p = -B0 a* + C, where A moves with
    (x, m1, m2) by (f0x, f0mu, f0m), B0 with (x, m1) by (b0x, b0m) and C
    with (x, m1, m2) by (b1_x'(x), dB/dm1, dB/dm2).
    """
    _, b0x, b0m = model.b0
    _, f0x, f0mu, f0m = model.f0
    a0, b0, c = drift_terms(model, x, mean_terms(model, m1, m2))
    a = a0 + p * b0
    a_m1 = f0mu + p * b0m
    big_b_m1, big_b_m2 = model.B.d_m1(m1, m2), model.B.d_m2(m1, m2)
    return HamiltonianPartials(
        h_p=-b0 * a + c,
        h_m1=-a * a_m1 + p * big_b_m1 + x * model.q1,
        h_m2=-a * f0m + p * big_b_m2 + x * model.q2,
        hp_x=-b0x * a - b0 * (f0x + p * b0x) + _poly(_der(model.b1_x), x),
        hp_p=-b0 * b0,
        hp_m1=-b0m * a - b0 * a_m1 + big_b_m1,
        hp_m2=-b0 * f0m + big_b_m2,
    )


def control_mean_tangent(model: Model, m1, e, dm1, de, ds):
    """Tangent of the fixed-point control mean m2* of ``_means`` at the state
    and momentum means (m1, e), along the tangents dm1, de and ds of m1, e
    and s = E[x p]."""
    b0c, b0x, b0m = model.b0
    _, f0x, f0mu, f0m = model.f0
    return ((f0x + f0mu + b0m * e) * dm1 + (b0c + b0m * m1) * de + b0x * ds) / (1.0 - f0m)


def _means(model: Model, x: np.ndarray, p: np.ndarray):
    """(m1, e, m2*): the state and momentum means of the uniform law of the
    atoms (x_i, p_i) and the control mean of its fixed point; the last axis
    runs over atoms and leading axes are independent laws."""
    b0c, b0x, b0m = model.b0
    f0c, f0x, f0mu, f0m = model.f0
    w = np.full(x.shape[-1], 1.0 / x.shape[-1])
    m1, e, s = x @ w, p @ w, (x * p) @ w
    return m1, e, (f0c + (f0x + f0mu) * m1 + (b0c + b0m * m1) * e + b0x * s) / (1.0 - f0m)


def fixed_point_phi(model: Model, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Controls of Phi(rho) for the uniform law rho of the atoms (x_i, p_i).

    Each atom keeps its state and takes the control f0(x_i, m1, m2*) +
    p_i B0(x_i); leading axes of x and p are independent laws.
    """
    m1, _, m2 = _means(model, x, p)
    return model.control(x, p, m1[..., None], m2[..., None])


def hat_derivative_table(model: Model, x: np.ndarray, p: np.ndarray) -> HatTable:
    """Derivatives of Hhat over every (base atom, support atom) pair of the
    uniform law of the atoms (x_i, p_i).

    Measure derivatives are the empirical projections (N times the partial
    derivative in one atom); they depend on the support atom j, through x_j
    and p_j, only when b0x != 0.  Leading axes of x and p are independent
    laws, and each law's entries are bit-identical to its own table.
    """
    b0c, b0x, b0m = model.b0
    _, f0x, f0mu, f0m = model.f0
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    # Each law as a (1, N) row, so that its means are one vector-vector
    # product however many laws are stacked (a matrix-vector product over
    # the laws can round differently); they keep that axis to broadcast
    # against the atoms.
    m1, e, m2 = _means(model, x[..., None, :], p[..., None, :])
    b_0 = b0c + b0m * m1 + b0x * x
    a = model.control(x, p, m1, m2)
    a_x = f0x + p * b0x
    d1 = (f0x + f0mu + b0m * e + b0x * p) / (1.0 - f0m)
    d2 = b_0 / (1.0 - f0m)
    kx = (model.q2 - a_x * f0m)[..., None]
    kp = (model.B.d_m2(m1, m2) - b_0 * f0m)[..., None]
    return HatTable(
        h_p=-a * b_0 + _poly(model.b1_x, x) + model.B(m1, m2),
        h_pp=-b_0**2,
        h_xx=-a_x**2 + p * _poly(_der(_der(model.b1_x)), x) + _poly(_der(_der(model.f1_x)), x),
        h_xp=-a_x * b_0 - a * b0x + _poly(_der(model.b1_x), x),
        h_xrho1=(model.q1 - a_x * (f0mu + p * b0m))[..., None] + kx * d1[..., None, :],
        h_xrho2=kx * d2[..., None, :],
        h_prho1=(model.B.d_m1(m1, m2) - b_0 * (f0mu + p * b0m) - a * b0m)[..., None]
        + kp * d1[..., None, :],
        h_prho2=kp * d2[..., None, :],
    )


def verify_envelope_identities(model: Model, sample_count: int = 200, seed: int = 0,
                               tol: float = 1e-6, fd_step: float = FD_STEP_POINT,
                               cloud_size: int = 8) -> ConditionReport:
    """Check b(x, a*, nu) = dH/dp and f(x, a*, nu) = H - p dH/dp on random
    triples, with dH/dp a central difference of the closed-form H, all
    samples at once.  A sample whose residual is not finite fails the check."""
    z = np.random.default_rng(seed).standard_normal((sample_count, 2 + 2 * cloud_size))
    x, p = 2.0 * z[:, 0], 2.0 * z[:, 1]
    m1, m2 = z[:, 2:].reshape(sample_count, 2, cloud_size).mean(axis=-1).T
    with np.errstate(all="ignore"):
        a_star = model.control(x, p, m1, m2)
        h_val = hamiltonian(model, x, p, m1, m2)
        h = fd_step * np.maximum(1.0, np.abs(p))
        hp = (hamiltonian(model, x, p + h, m1, m2)
              - hamiltonian(model, x, p - h, m1, m2)) / (2.0 * h)
        residual = np.maximum(np.abs(model.drift(x, a_star, m1, m2) - hp),
                              np.abs(model.cost(x, a_star, m1, m2) - (h_val - p * hp)))
        margin = tol - residual
    return ConditionReport.judge(
        "envelope_identities", margin, tol,
        lambda k: {"sample": k, "x": float(x[k]), "p": float(p[k]),
                   "residual": float(residual[k])},
        details=lambda k: {"max_residual": float(residual[k]), "fd_step": fd_step})
