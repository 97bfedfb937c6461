"""Checkers for the sufficient conditions on the reduced Hamiltonian.

Each condition is a quadratic-form inequality in test variables
(xi, eta, gamma, zeta) and a Lipschitz feedback phi freezing the momentum
variable.  Independent copies are realised as full double sums over atom
pairs, self-pairs included: the continuum formulas integrate over a
measure-zero diagonal, and at n >= 16 atoms the O(1/n) diagonal bias is
dominated by the configured tolerance.

Because every functional here is jointly quadratic in (zeta, gamma, eta),
its restriction to rank-one directions (all mass on the mean) is an exact
3x3 quadratic form; the checkers reconstruct that form from six evaluations
and append its worst eigendirection to the sample battery, which finds
mean-directed witnesses deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import HatTable, Model, hat_derivative_table
from .monotonicity import LambdaVec
from .reports import ConditionReport

PASS_SLACK = 1e-12
# Relative slack of the sampled forms; the hat derivatives are exact.
REL_TOL = 1e-8


class ConditionError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticFormSample:
    """One test sample: atom values of the four variables plus the feedback."""

    xi: np.ndarray
    eta: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    phi_map: Callable

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("xi", "eta", "gamma", "zeta"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise ConditionError(f"sample field {name} has non-finite entries")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ConditionError("sample fields must have equal lengths")
            arrays[name] = arr
        if n < 2:
            raise ConditionError("samples need at least two atoms")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    def table(self, model: Model):
        """Hat derivatives over the frozen law of (xi, phi(xi))."""
        momenta = np.asarray(self.phi_map(self.xi), dtype=float).reshape(-1)
        return hat_derivative_table(model, self.xi, momenta)


def affine_feedback(intercept: float, slope: float) -> Callable:
    return lambda x: intercept + slope * np.asarray(x, dtype=float)


def clipped_poly_feedback(coeffs, bound: float = 3.0) -> Callable:
    c = np.asarray(coeffs, dtype=float)

    def phi(x):
        return np.clip(np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c),
                       -bound, bound)

    return phi


def make_condition_samples(n_samples: int, n_atoms: int = 16, seed: int = 0) -> list:
    """Mixture of Gaussian clouds and rank-one (mean-directed) samples with
    alternating affine and clipped-polynomial feedbacks."""
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(n_samples):
        if k % 2 == 0:
            phi = affine_feedback(float(rng.normal(0, 0.5)), float(rng.normal(0, 1.0)))
        else:
            phi = clipped_poly_feedback(rng.normal(0, 0.5, size=4))
        xi = rng.normal(0.0, 1.0, n_atoms)
        if k % 3 == 2:
            # rank-one: all variables constant across atoms
            v = rng.normal(0.0, 1.0, 3)
            eta = np.full(n_atoms, v[0])
            gamma = np.full(n_atoms, v[1])
            zeta = np.full(n_atoms, v[2])
        else:
            eta = rng.normal(0.0, 1.0, n_atoms)
            gamma = rng.normal(0.0, 1.0, n_atoms)
            zeta = rng.normal(0.0, 1.0, n_atoms)
        samples.append(QuadraticFormSample(xi, eta, gamma, zeta, phi))
    return samples


def ll_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray) -> float:
    """Left-hand side of the Lasry-Lions propagation condition.

    Double sums run over all atom pairs (self-pairs included) through the
    weight vectors; [i, j] entries of the derivative tables put the base
    point at atom i and the support atom at j.
    """
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    gz = gamma + zeta
    term_pp = float(np.mean(zeta * table.h_pp * zeta))
    cross_x = float((w * eta) @ (table.h_xrho1 * eta[None, :]
                                 + table.h_xrho2 * gz[None, :]) @ w)
    cross_p = float((w * (gamma - zeta)) @ (table.h_prho1 * eta[None, :]
                                            + table.h_prho2 * gz[None, :]) @ w)
    return term_pp - cross_x - cross_p


def disp_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray,
              lam: float) -> float:
    """Left-hand side of the displacement lambda propagation condition."""
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    gz = gamma + zeta
    term_pp = float(np.mean(gz * table.h_pp * gz))
    term_eta_xx = float(np.mean(eta * (table.h_xx - 2.0 * lam * table.h_xp) * eta))
    # [i, j] coefficient of gz_i eta_j: base point of h_xrho2/h_prho2 is atom j
    mixed = (table.h_prho1 + table.h_xrho2.T + 2.0 * lam * table.h_prho2.T)
    term_mixed = float((w * gz) @ (mixed * eta[None, :]) @ w)
    term_lam_pp = 2.0 * lam * float(np.mean(gz * table.h_pp * eta))
    term_pr2 = float((w * gz) @ (table.h_prho2 * gz[None, :]) @ w)
    term_eta_x = float((w * eta) @ ((table.h_xrho1 - 2.0 * lam * table.h_prho1)
                                    * eta[None, :]) @ w)
    return term_pp - term_eta_xx + term_mixed + term_lam_pp + term_pr2 - term_eta_x


def _rank_one_worst(form: Callable, xi: np.ndarray, phi_map: Callable) -> QuadraticFormSample:
    """Reconstruct the 3x3 rank-one restriction of a quadratic form and return
    the sample along its most-violating eigendirection."""
    n = xi.shape[0]

    def value(v):
        return form(QuadraticFormSample(
            xi, np.full(n, v[2]), np.full(n, v[1]), np.full(n, v[0]), phi_map
        ))

    basis = np.eye(3)
    q = np.zeros((3, 3))
    for i in range(3):
        q[i, i] = value(basis[i])
    for i in range(3):
        for j in range(i + 1, 3):
            q[i, j] = q[j, i] = 0.5 * (value(basis[i] + basis[j]) - q[i, i] - q[j, j])
    eigvals, eigvecs = np.linalg.eigh(0.5 * (q + q.T))
    v = eigvecs[:, -1]  # direction of the largest (worst) form value
    return QuadraticFormSample(xi, np.full(n, v[2]), np.full(n, v[1]), np.full(n, v[0]),
                               phi_map)


def _form_report(condition: str, samples: list, form: Callable,
                 tol: float | None) -> ConditionReport:
    battery = list(samples)
    if battery:
        battery.append(_rank_one_worst(form, battery[0].xi, battery[0].phi_map))
    worst_margin = np.inf
    witness = None
    values = []
    for idx, sample in enumerate(battery):
        value = form(sample)
        scale = max(1.0, abs(value),
                    float(np.mean(sample.eta**2) + np.mean(sample.gamma**2)
                          + np.mean(sample.zeta**2)))
        threshold = tol if tol is not None else REL_TOL * scale
        margin = threshold - value
        values.append(value)
        if margin < worst_margin:
            worst_margin = margin
            witness = {
                "sample": idx,
                "value": value,
                "eta": sample.eta.tolist(),
                "gamma": sample.gamma.tolist(),
                "zeta": sample.zeta.tolist(),
                "rank_one_adversarial": idx == len(battery) - 1,
            }
    passed = worst_margin >= -PASS_SLACK
    return ConditionReport(
        condition=condition,
        n_samples=len(battery),
        worst_margin=float(worst_margin),
        passed=bool(passed),
        tolerance=tol if tol is not None else REL_TOL,
        witness=None if passed else witness,
        details={"max_value": float(np.max(values)) if values else 0.0},
    )


def check_ll_condition(model: Model, samples: list,
                       tol: float | None = None) -> ConditionReport:
    """Sampled test of the Lasry-Lions quadratic-form condition (pass: <= tol)."""
    return _form_report("lasry_lions_hamiltonian", samples,
                        lambda s: ll_form(s.table(model), s.eta, s.gamma, s.zeta), tol)


def check_disp_condition(model: Model, lam: float, samples: list,
                         tol: float | None = None) -> ConditionReport:
    """Sampled test of the displacement lambda quadratic-form condition."""
    if lam < 0:
        raise ConditionError("lambda must be nonnegative")
    return _form_report("displacement_hamiltonian", samples,
                        lambda s: disp_form(s.table(model), s.eta, s.gamma, s.zeta,
                                            lam), tol)


def matrix1_assemble(c1: float, c2: float, c3: float, db1_dm1: float,
                     db1_dm2: float) -> np.ndarray:
    if not 0.0 < c1 < 1.0:
        raise ConditionError(f"c1 must lie in (0, 1), got {c1}")
    chat1 = c1 / (1.0 - c1)
    cbar1 = 1.0 / (1.0 - c1)
    chat3 = c3 / (1.0 - c1)
    h_prho2 = cbar1 * db1_dm2 - chat1
    return np.array([
        [1.0 - h_prho2, 0.0, 0.5 * (chat3 - db1_dm1)],
        [0.0, h_prho2, 0.5 * (chat3 + db1_dm1)],
        [0.5 * (chat3 - db1_dm1), 0.5 * (chat3 + db1_dm1), c2],
    ])


def check_matrix1(c1: float, c2: float, c3: float, db1_dm1: float,
                  db1_dm2: float) -> ConditionReport:
    """Exact PSD test of the 3x3 coefficient matrix of the mean-coupled family."""
    matrix = matrix1_assemble(c1, c2, c3, db1_dm1, db1_dm2)
    eigenvalues = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    smallest = float(eigenvalues[0])
    passed = smallest >= -PASS_SLACK
    return ConditionReport(
        condition="coefficient_matrix_psd",
        n_samples=1,
        worst_margin=smallest + PASS_SLACK,
        passed=bool(passed),
        tolerance=PASS_SLACK,
        witness=None if passed else {"eigenvalue": smallest,
                                     "matrix": matrix.tolist()},
        details={"eigenvalues": eigenvalues.tolist(), "matrix": matrix.tolist()},
    )


def control_coupling(model: Model) -> float | None:
    """c when the model has the control-coupled form b0 = (1, 0, 0),
    f0 = (0, 0, 0, c) of the ll/disp/anti presets, else None."""
    if model.b0 == (1.0, 0.0, 0.0) and model.f0[:3] == (0.0, 0.0, 0.0):
        return model.f0[3]
    return None


def check_disp_sufficient(model: Model, lam: float, c0: float, samples: list,
                          tol: float | None = None) -> ConditionReport:
    """Single-variable sufficient condition for the displacement form.

    Hypotheses checked first on every sample: |Hhat_{p rho2}| <= c0 and
    Hhat_pp < -c0.  Then the (xi, eta)-only inequality with the
    inverse-square-root normalisation must be >= -tol.  For a control-coupled
    model the scalar parameter inequality is evaluated exactly and reported
    alongside.
    """
    if c0 < 0:
        raise ConditionError("c0 must be nonnegative")
    worst_margin = np.inf
    witness = None
    hypothesis_fail = None
    for idx, sample in enumerate(samples):
        table = sample.table(model)
        n = sample.n
        w = np.full(n, 1.0 / n)
        if np.max(np.abs(table.h_prho2)) > c0 + 1e-9:
            hypothesis_fail = {"sample": idx, "bound": "h_prho2",
                               "value": float(np.max(np.abs(table.h_prho2))), "c0": c0}
            break
        if np.max(table.h_pp) >= -c0 - 1e-12:
            hypothesis_fail = {"sample": idx, "bound": "h_pp",
                               "value": float(np.max(table.h_pp)), "c0": c0}
            break
        eta = sample.eta
        mixed = (table.h_prho1 + table.h_xrho2.T + 2.0 * lam * table.h_prho2.T)
        inner = (mixed * eta[None, :]) @ w + 2.0 * lam * table.h_pp * eta
        lam_vec = inner / np.sqrt(-table.h_pp - c0)
        value = (float(np.mean(eta * (table.h_xx - 2.0 * lam * table.h_xp) * eta))
                 + float((w * eta) @ ((table.h_xrho1 - 2.0 * lam * table.h_prho1)
                                      * eta[None, :]) @ w)
                 - 0.25 * float(np.mean(lam_vec**2)))
        scale = max(1.0, abs(value), float(np.mean(eta**2)))
        threshold = tol if tol is not None else REL_TOL * scale
        margin = value + threshold
        if margin < worst_margin:
            worst_margin = margin
            witness = {"sample": idx, "value": value, "eta": eta.tolist()}
    details: dict = {}
    if control_coupling(model) is not None:
        details["scalar_inequality"] = _scalar_disp_inequality(model, c0)
    if hypothesis_fail is not None:
        return ConditionReport(
            condition="displacement_sufficient",
            n_samples=len(samples),
            worst_margin=-np.inf,
            passed=False,
            tolerance=tol if tol is not None else REL_TOL,
            witness=hypothesis_fail,
            failure_kind="hypothesis",
            details=details,
        )
    passed = worst_margin >= -PASS_SLACK
    return ConditionReport(
        condition="displacement_sufficient",
        n_samples=len(samples),
        worst_margin=float(worst_margin),
        passed=bool(passed and details.get("scalar_inequality", {}).get("holds", True)),
        tolerance=tol if tol is not None else REL_TOL,
        witness=None if passed else witness,
        details=details,
    )


def _scalar_disp_inequality(model: Model, c0: float) -> dict:
    """Exact parameter form of the sufficient condition for a control-coupled
    model: curvature of the x-cost must dominate the state coupling plus the
    normalised square of the momentum couplings."""
    c = control_coupling(model)
    chat = c / (1.0 - c)
    q1, q2 = model.q1, model.q2
    bmean = np.asarray(model.B.coeffs)
    if np.any(bmean[3:] != 0.0):
        # nonlinear mean coupling: derivative sup over a sampled box
        grid = np.linspace(-3.0, 3.0, 25)
        m1g, m2g = np.meshgrid(grid, grid)
        d1 = np.abs(bmean[1] + 2 * bmean[3] * m1g + bmean[4] * m2g).max()
    else:
        d1 = abs(bmean[1])
    xs = np.linspace(-6.0, 6.0, 121)
    poly = np.polynomial.polynomial
    kappa = float(np.min(poly.polyval(xs, poly.polyder(model.f1_x, 2))))
    rhs = abs(q1) + (d1 + (1.0 + chat) * abs(q2)) ** 2 / (4.0 * (1.0 - c0)) \
        if c0 < 1.0 else np.inf
    return {
        "kappa": kappa,
        "rhs": float(rhs),
        "holds": bool(kappa >= rhs - 1e-12),
        "c0": c0,
    }


def anti_coefficient_matrices(lvec: LambdaVec, theta1: float,
                              gamma_lo: float, lu_xx: float):
    """The diagonal gain matrix and the loss matrix of the anti-monotone
    propagation estimate."""
    l0_, l1_, l2_, l3_ = lvec.l0, lvec.l1, lvec.l2, lvec.l3
    a1 = np.diag([
        4.0 * (1.0 - theta1),
        2.0 * l2_,
        (1.0 - theta1) * (l0_ * gamma_lo + 2.0 * l3_),
    ])
    b1 = np.array([
        [2.0, 2.0 + l2_, 1.0],
        [2.0 + l2_, 4.0 * l2_, l2_],
        [1.0, l2_, 0.0],
    ])
    b2 = np.array([
        [l0_ + 2.0 * abs(l0_ - l1_),
         l0_ + abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + l2_,
         abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + 2.0 * l3_],
        [l0_ + abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + l2_,
         2.0 * abs(l1_) + 2.0 * l2_,
         abs(l1_) + l2_ + 2.0 * l3_],
        [abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + 2.0 * l3_,
         abs(l1_) + l2_ + 2.0 * l3_,
         abs(l1_) + 2.0 * l3_],
    ])
    a2 = b1 * lu_xx + b2
    return a1, a2


def anti_theta1(lvec: LambdaVec, gamma_lo: float, gamma_hi: float,
                lu_xx: float) -> float:
    return float(gamma_hi * (1.0 + lu_xx) / np.sqrt(4.0 * (gamma_lo * lvec.l0 + 2.0 * lvec.l3)))


def check_anti_assumption(model: Model, lvec: LambdaVec, l0: float,
                          gamma_lo: float, gamma_hi: float, l_bar: float,
                          lu_xx: float, n_samples: int = 30, n_atoms: int = 8,
                          seed: int = 0) -> ConditionReport:
    """Staged verification of the anti-monotone propagation hypotheses.

    (i) sampled derivative bounds; (ii) the contraction number theta1 < 1
    (reported first when it fails: the gain matrix would be singular);
    (iii)/(iv) the assembled gain/loss matrices must satisfy
    l_bar * sup-eigenvalue(A1^{-1} A2) <= l0.
    """
    if not gamma_hi > gamma_lo > 0:
        raise ConditionError("need gamma_hi > gamma_lo > 0")
    rng = np.random.default_rng(seed)
    slack = 1e-9
    bound_margins = []
    witness = None
    for idx in range(n_samples):
        states = rng.normal(0.0, 1.0, n_atoms)
        table = hat_derivative_table(model, states, rng.normal(0.0, 1.0, n_atoms))
        checks = {
            "abs_h_xp<=gamma_hi*l0": gamma_hi * l0 - float(np.max(np.abs(table.h_xp))),
            "abs_h_xx<=gamma_hi*l0": gamma_hi * l0 - float(np.max(np.abs(table.h_xx))),
            "abs_h_pp<=l_bar": l_bar - float(np.max(np.abs(table.h_pp))),
            "abs_h_xrho1<=l_bar": l_bar - float(np.max(np.abs(table.h_xrho1))),
            "abs_h_xrho2<=l_bar": l_bar - float(np.max(np.abs(table.h_xrho2))),
            "abs_h_prho1<=l_bar": l_bar - float(np.max(np.abs(table.h_prho1))),
            "abs_h_prho2<=l_bar": l_bar - float(np.max(np.abs(table.h_prho2))),
            "-h_xp>=l0": float(np.min(-table.h_xp)) - l0,
            "-h_xx>=gamma_lo*l0": float(np.min(-table.h_xx)) - gamma_lo * l0,
        }
        for name, margin in checks.items():
            bound_margins.append(margin)
            if margin < -slack and witness is None:
                witness = {"sample": idx, "bound": name, "margin": margin}
    bounds_margin = float(np.min(bound_margins))
    if witness is not None:
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=bounds_margin, passed=False, tolerance=slack,
            witness=witness, failure_kind="derivative_bounds",
            details={"stage": "bounds"},
        )

    theta1 = anti_theta1(lvec, gamma_lo, gamma_hi, lu_xx)
    details = {"theta1": theta1, "bounds_margin": bounds_margin}
    if not theta1 < 1.0:
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=1.0 - theta1, passed=False, tolerance=0.0,
            witness={"theta1": theta1}, failure_kind="theta",
            details=details | {"stage": "theta"},
        )

    a1, a2 = anti_coefficient_matrices(lvec, theta1, gamma_lo, lu_xx)
    product = np.linalg.solve(a1, a2)
    kappa_bar = float(np.linalg.eigvalsh(0.5 * (product + product.T))[-1])
    gain_margin = l0 - l_bar * kappa_bar
    details.update({
        "kappa_bar": kappa_bar,
        "a1": a1.tolist(),
        "a2": a2.tolist(),
        "gain_margin": gain_margin,
    })
    passed = gain_margin >= -slack
    return ConditionReport(
        condition="anti_monotone_assumption", n_samples=n_samples,
        worst_margin=float(min(bounds_margin, 1.0 - theta1, gain_margin)),
        passed=bool(passed), tolerance=slack,
        witness=None if passed else {"kappa_bar": kappa_bar, "l_bar": l_bar, "l0": l0},
        failure_kind=None if passed else "gain",
        details=details,
    )


def check_f_monotone(model: Model, pairs: list,
                     tol: float = 1e-10) -> ConditionReport:
    """Four-term cross-difference monotonicity of the running cost in the
    joint law, under the hypothesis b(x, a, nu) = a.

    ``pairs`` is a list of ((xi1, alpha1), (xi2, alpha2)) coupled atom arrays.
    """
    if (model.b0, model.b1_x, model.B.coeffs) != ((-1.0, 0.0, 0.0), (0.0,), (0.0,) * 6):
        return ConditionReport(
            condition="cost_cross_monotonicity", n_samples=len(pairs),
            worst_margin=-np.inf, passed=False, tolerance=tol,
            witness={"b0": list(model.b0), "b1_x": list(model.b1_x),
                     "b1_mean": list(model.B.coeffs)},
            failure_kind="hypothesis",
            details={"reason": "drift is not the identity in the control"},
        )
    worst_margin = np.inf
    witness = None
    for idx, ((xi1, a1), (xi2, a2)) in enumerate(pairs):
        xi1 = np.asarray(xi1, dtype=float).reshape(-1)
        a1 = np.asarray(a1, dtype=float).reshape(-1)
        xi2 = np.asarray(xi2, dtype=float).reshape(-1)
        a2 = np.asarray(a2, dtype=float).reshape(-1)
        law1 = (float(np.mean(xi1)), float(np.mean(a1)))
        law2 = (float(np.mean(xi2)), float(np.mean(a2)))
        value = float(
            np.mean(model.cost(xi1, a1, *law1)) + np.mean(model.cost(xi2, a2, *law2))
            - np.mean(model.cost(xi1, a1, *law2)) - np.mean(model.cost(xi2, a2, *law1))
        )
        margin = value + tol
        if margin < worst_margin:
            worst_margin = margin
            witness = {"pair": idx, "value": value}
    passed = worst_margin >= 0.0
    return ConditionReport(
        condition="cost_cross_monotonicity", n_samples=len(pairs),
        worst_margin=float(worst_margin), passed=bool(passed), tolerance=tol,
        witness=None if passed else witness, details={},
    )
