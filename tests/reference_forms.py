"""Reference implementation of the quadratic forms L, Ibar, DX2 and the
displacement form, the oracle of ``conditions.form_rows``, the one
statement of their coefficients, and so of the three ways the package reads
it: the gates' matrices (``conditions.form_matrices``), the sufficient
matrix (``conditions.sufficient_matrix``) and the traces' atom sums
(``propagation.evaluate_rhs_formulas``).  Also the every-law judge of
the eigen-judged gates, the oracle of the gates' one-law path on law-free
hat tables, and the closed form of the Lasry-Lions condition on the
ll_example family, the oracle of the ll gate there.

Each form is written out as the atom sums of its definition, one direction
(eta, gamma, zeta) at a time.  Double sums run over all atom pairs
(self-pairs included) through the weight vectors; [i, j] entries of the
derivative tables put the base point at atom i and the support atom at j.
"""
import numpy as np

from mfgclab.conditions import (
    PASS_SLACK,
    REL_TOL,
    _scalar_disp_inequality,
    control_coupling,
    form_matrices,
    sufficient_matrix,
)
from mfgclab.models import HatTable
from mfgclab.reports import ConditionReport
from reference_variational import dx_velocity


def ll_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray) -> float:
    """Left-hand side of the Lasry-Lions propagation condition."""
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    gz = gamma + zeta
    term_pp = float(np.mean(zeta * table.h_pp * zeta))
    cross_x = float((w * eta) @ (table.h_xrho1 * eta[None, :]
                                 + table.h_xrho2 * gz[None, :]) @ w)
    cross_p = float((w * (gamma - zeta)) @ (table.h_prho1 * eta[None, :]
                                            + table.h_prho2 * gz[None, :]) @ w)
    return term_pp - cross_x - cross_p


def ibar_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray,
              zeta: np.ndarray) -> float:
    """Time derivative of the curvature pairing Ibar = E[G dX] at
    (dX, G, U) = (eta, gamma, zeta)."""
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    return (float(np.mean(table.h_pp * gamma * gamma))
            + 2.0 * float(np.mean(table.h_pp * gamma * zeta))
            + 2.0 * float((w * gamma) @ (table.h_prho1 * eta[None, :]
                                         + table.h_prho2 * (gamma + zeta)[None, :]) @ w)
            - float(np.mean(table.h_xx * eta * eta)))


def dx2_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray,
             zeta: np.ndarray) -> float:
    """Time derivative of the second moment E[dX^2] at (dX, G, U) =
    (eta, gamma, zeta)."""
    return 2.0 * float(np.mean(dx_velocity(table, eta, gamma + zeta) * eta))


def disp_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray,
              lam: float) -> float:
    """Left-hand side of the displacement lambda propagation condition: the
    time derivative of I + Ibar + lam E[dX^2] along the first-variation
    system.  It depends on gamma and zeta only through gamma + zeta."""
    return (ll_form(table, eta, gamma, zeta) + ibar_form(table, eta, gamma, zeta)
            + lam * dx2_form(table, eta, gamma, zeta))


def every_law_eigen_report(condition: str, matrices: np.ndarray, tol: float | None,
                           sign: int = 1, blocks: tuple = ("eta", "gamma", "zeta"),
                           details: dict | None = None) -> ConditionReport:
    """The eigenvalue judge of ``conditions._eigen_report`` with one
    eigenproblem per law, whatever the laws share: value = N lambda of each
    law's matrix (the largest eigenvalue for sign = 1, the smallest for
    sign = -1), a NaN value for a non-finite matrix, and the unit-RMS
    eigenvector of the worst law as the witness."""
    n = matrices.shape[-1] // len(blocks)
    column = -1 if sign > 0 else 0
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    matrices = np.where(finite[:, None, None], matrices, 0.0)
    values = np.where(finite, n * np.linalg.eigvalsh(matrices)[:, column], np.nan)
    threshold = tol if tol is not None else REL_TOL * np.maximum(1.0, np.abs(values))

    def witness(worst: int) -> dict:
        found = {"sample": worst, "value": float(values[worst])}
        if finite[worst]:
            vector = np.sqrt(n) * np.linalg.eigh(matrices[worst])[1][:, column]
            found.update((name, part.tolist())
                         for name, part in zip(blocks, np.split(vector, len(blocks))))
        return found

    return ConditionReport.judge(
        condition, threshold - sign * values, tol if tol is not None else REL_TOL,
        witness, PASS_SLACK,
        {"max_value": float(np.max(values))} if details is None else details)


def every_law_gate(condition: str, table: HatTable, weights: tuple,
                   tol: float | None = None) -> ConditionReport:
    """The gate of ``form_matrices`` weights, the ll gate's (1, 0, 0) or the
    displacement gate's (1, 1, lam), judged on every law of the stacked
    table."""
    with np.errstate(all="ignore"):
        matrices = form_matrices(table, weights)
    return every_law_eigen_report(condition, matrices, tol)


def every_law_sufficient(model, lam: float, c0: float, table: HatTable,
                         tol: float | None = None) -> ConditionReport:
    """``conditions.check_disp_sufficient`` judged on every law of the
    stacked table: the first law that breaks a hypothesis, h_prho2 before
    h_pp, then the eigenvalue test of every law's ``sufficient_matrix``,
    then the scalar inequality of a control-coupled model."""
    laws = len(table.h_pp)
    details: dict = {}
    with np.errstate(all="ignore"):
        if control_coupling(model) is not None:
            details["scalar_inequality"] = _scalar_disp_inequality(model, c0)
        prho2 = np.abs(table.h_prho2).reshape(laws, -1).max(axis=1)
        pp = table.h_pp.max(axis=1)
        over = ~(prho2 <= c0 + 1e-9)
        bad = np.flatnonzero(over | ~(pp < -c0 - 1e-12))
    if bad.size:
        idx = int(bad[0])
        bound, value = ("h_prho2", prho2[idx]) if over[idx] else ("h_pp", pp[idx])
        return ConditionReport(
            condition="displacement_sufficient", n_samples=laws, worst_margin=-np.inf,
            passed=False, tolerance=tol if tol is not None else REL_TOL,
            witness={"sample": idx, "bound": bound, "value": float(value), "c0": c0},
            failure_kind="hypothesis", details=details)
    with np.errstate(all="ignore"):
        matrices = sufficient_matrix(table, lam, c0)
    report = every_law_eigen_report("displacement_sufficient", matrices, tol, sign=-1,
                                    blocks=("eta",), details=details)
    scalar = details.get("scalar_inequality")
    if scalar is not None and not scalar["holds"]:
        # A failing scalar inequality is the witness, with margin
        # kappa - rhs, unless a law's margin is smaller or NaN.
        margin = scalar["kappa"] - scalar["rhs"]
        if report.passed or margin < report.worst_margin:
            report.worst_margin, report.passed = margin, False
            report.witness = {"inequality": "scalar_inequality", "kappa": scalar["kappa"],
                              "rhs": scalar["rhs"]}
    return report


def ll_example_matrix(c1: float, c2: float, c3: float, db1_dm1: float,
                      db1_dm2: float) -> np.ndarray:
    """The symmetric 3x3 coefficient matrix of the Lasry-Lions condition on
    the ll_example family: b0 = (1, 0, 0), f0 = (0, 0, 0, c1) with
    0 < c1 < 1, q1 = c2, q2 = c3 and a mean coupling B linear in the means,
    with slopes db1_dm1 and db1_dm2.  The condition holds iff the matrix is
    positive semidefinite, and the ll gate's value there is
    max(-lambda_min, 0): the ll form's maximum over unit-RMS directions."""
    chat1 = c1 / (1.0 - c1)
    cbar1 = 1.0 / (1.0 - c1)
    chat3 = c3 / (1.0 - c1)
    h_prho2 = cbar1 * db1_dm2 - chat1
    return np.array([
        [1.0 - h_prho2, 0.0, 0.5 * (chat3 - db1_dm1)],
        [0.0, h_prho2, 0.5 * (chat3 + db1_dm1)],
        [0.5 * (chat3 - db1_dm1), 0.5 * (chat3 + db1_dm1), c2],
    ])
