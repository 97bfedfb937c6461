"""Differential calculus on empirical measures.

Linear functional derivatives, the chain rule for measure-valued maps, and
the one directional measure derivative of the value-function gradient that
the monotonicity functionals consume.  Distribution-valued derivatives are only ever used inside pairings
against test functions, and linear functional derivatives only ever paired
against mass-zero signed measures, which removes their additive-constant
ambiguity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import JointEmpiricalMeasure, MeasureError, mixture


class CalculusError(ValueError):
    pass


@dataclass(frozen=True)
class MeasureFunctional:
    """Real-valued functional of a particle cloud.

    ``lderiv(nu, ys)`` evaluates the linear functional derivative
    (delta F / delta nu)(nu, y) at an array of points; it is required by the
    chain rule and may be omitted otherwise.  For a joint cloud the points are
    (k, 2) arrays of (state, second) pairs.
    """

    eval: Callable
    label: str = ""
    lderiv: Callable | None = None

    def __call__(self, nu) -> float:
        value = float(self.eval(nu))
        if not np.isfinite(value):
            raise CalculusError(f"functional {self.label!r} is non-finite")
        return value


@dataclass(frozen=True)
class MeasureMap:
    """Map between particle clouds with an optional closed-form derivative.

    ``closed_form_lderiv(rho, x, p, psi)`` returns the pairing
    <(delta Phi / delta rho)(rho, (x, p)), psi> for a test function
    psi(xs, ps) vectorised over points.
    """

    eval: Callable
    label: str = ""
    closed_form_lderiv: Callable | None = None

    def __call__(self, rho):
        out = self.eval(rho)
        if abs(out.weights.sum() - 1.0) > 1e-12:
            raise CalculusError(f"measure map {self.label!r} broke weight normalisation")
        return out


def identity_map() -> MeasureMap:
    """Phi(rho) = rho; the derivative pairing is psi itself at the base point."""

    def lderiv(rho, x, p, psi):
        return float(psi(np.array([x]), np.array([p]))[0])

    return MeasureMap(eval=lambda rho: rho, label="identity", closed_form_lderiv=lderiv)


def mean_shift_map(c: float) -> MeasureMap:
    """Phi(L_(xi, eta)) = L_(xi, eta + c E[eta]).

    The derivative pairing against psi has a transport term at the shifted
    base point plus a mean-field term c * p * E_Phi(rho)[d psi/dp]; the second
    factor is evaluated by central differences in the second coordinate.
    """

    def apply(rho: JointEmpiricalMeasure) -> JointEmpiricalMeasure:
        return rho.with_seconds(rho.seconds + c * rho.second_mean())

    def lderiv(rho, x, p, psi, step: float = 1e-6):
        shift = c * rho.second_mean()
        transported = float(psi(np.array([x]), np.array([p + shift]))[0])
        nu = apply(rho)
        dpsi_dp = (psi(nu.x, nu.a + step) - psi(nu.x, nu.a - step)) / (2.0 * step)
        return transported + c * p * float(nu.weights @ dpsi_dp)

    return MeasureMap(eval=apply, label=f"mean_shift(c={c})", closed_form_lderiv=lderiv)


def chain_rule_check(u: MeasureFunctional, phi: MeasureMap,
                     rho: JointEmpiricalMeasure, rho_prime: JointEmpiricalMeasure,
                     fd_step: float = 1e-4, richardson: bool = False) -> dict:
    """Compare the two sides of the chain rule for Uhat = U o Phi.

    fd_value differentiates eps -> U(Phi(rho + eps (rho' - rho))) at 0 by
    central differences; chain_value pairs the composed derivative
    integral of (delta U / delta nu)(Phi(rho), y) (delta Phi / delta rho)(rho, x; dy)
    against (rho' - rho).  Pairing against the mass-zero difference removes
    the additive constant both derivatives are only defined up to.
    """
    if phi.closed_form_lderiv is None:
        raise CalculusError("chain_rule_check needs a closed-form map derivative")
    if u.lderiv is None:
        raise CalculusError("chain_rule_check needs the functional's linear derivative")
    if rho.n != rho_prime.n:
        raise MeasureError("chain_rule_check needs clouds of equal size")

    def u_of_mix(eps: float) -> float:
        return u(phi(mixture(rho, rho_prime, eps)))

    # The mixture is a probability measure only for eps in [0, 1], so the
    # derivative at 0 uses the second-order one-sided stencil
    # (-3 f(0) + 4 f(h) - f(2h)) / (2h); Richardson removes the h^2 term.
    u0 = u_of_mix(0.0)

    def one_sided(h: float) -> float:
        return (-3.0 * u0 + 4.0 * u_of_mix(h) - u_of_mix(2.0 * h)) / (2.0 * h)

    if richardson:
        fd_value = (4.0 * one_sided(fd_step / 2.0) - one_sided(fd_step)) / 3.0
    else:
        fd_value = one_sided(fd_step)

    nu = phi(rho)

    def psi(xs, ps):
        pts = np.column_stack([np.asarray(xs, dtype=float), np.asarray(ps, dtype=float)])
        return u.lderiv(nu, pts)

    def paired(cloud: JointEmpiricalMeasure) -> float:
        total = 0.0
        for k in range(cloud.n):
            total += cloud.weights[k] * phi.closed_form_lderiv(
                rho, float(cloud.x[k]), float(cloud.a[k]), psi
            )
        return total

    chain_value = paired(rho_prime) - paired(rho)
    return {
        "fd_value": float(fd_value),
        "chain_value": float(chain_value),
        "abs_error": abs(float(fd_value) - float(chain_value)),
    }


def value_measure_gradient(access, t: float, x: np.ndarray, eta,
                           fd_eps: float = 1e-3) -> np.ndarray:
    """Directional measure derivative of the value gradient at the atoms x.

    ``access.field(t, x)`` must return a ``ValueField`` whose first slice is
    V(t, ., mu) for the uniform cloud mu of the atoms x.  The direction eta
    is a 1-D array aligned with x; the cloud is displaced to x +/- eps * eta,
    with eps = fd_eps / rms(eta), and the central difference of dV/dx
    approximates D_i = (1/N) sum_j d_x d_mu V(t, x_i, mu, x_j) eta_j at every
    atom x_i.  A zero direction gives zeros without calling ``access``.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != x.shape:
        raise CalculusError(f"direction shape {eta.shape} does not match cloud {x.shape}")
    scale = float(np.sqrt(np.mean(eta**2)))
    if scale == 0.0:
        return np.zeros(x.shape[0])
    eps = fd_eps / scale
    plus = access.field(t, x + eps * eta)
    minus = access.field(t, x - eps * eta)
    diff = (plus.ux_at(0, x) - minus.ux_at(0, x)) / (2.0 * eps)
    if not np.all(np.isfinite(diff)):
        raise CalculusError("perturbed value solves produced non-finite gradients")
    return diff
