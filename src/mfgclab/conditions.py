"""Checkers for the sufficient conditions on the reduced Hamiltonian.

Each condition is a quadratic-form inequality that must hold for every test
triple v = (eta, gamma, zeta) of atom values, on random laws of (state,
momentum) atoms: a set of laws is a pair of (laws, N) arrays (xi, p), row k
holding law k's states and the momenta that a Lipschitz feedback freezes at
them.  Independent copies are realised as full double sums over atom pairs,
self-pairs included: the continuum formulas integrate over a measure-zero
diagonal, and at n >= 16 atoms the O(1/n) diagonal bias is dominated by the
configured tolerance.

The forms L, Ibar and DX2 are stated once, as the rows of their weighted
sum at v = (eta, gamma, zeta) with the mean-field ``forcings`` of v
(``form_rows``), and that one statement is read three ways: at unit
vectors it fills the symmetric (3N, 3N) matrix M of the form on one law of
N atoms (``form_matrices``), whose maximum over unit-RMS v is N times the
largest eigenvalue of M; the sufficient condition's (N, N) matrix is a
Schur bound of the displacement M (``sufficient_matrix``); and the
propagation traces take atom sums of v times the rows at the flow's states,
with no matrix (``propagation.evaluate_rhs_formulas``).  Every gate
reads one hat table over all its laws and builds only the weighted sum of
forms that it judges, one matrix per distinct law (``_distinct_laws``): when
every form entry of every law, all table fields but h_p, is bitwise equal to
law 0's, law 0's matrix and eigenvalue stand for all laws, else each law has
its own.  A signed zero or a NaN payload counts as a difference.  The gates
judge the eigenvalue on each random law, and a failing gate reports the
eigenvector that attains it.

Every checker turns one margin per law (or pair, or matrix) into its verdict
by one rule, ``ConditionReport.judge``: the worst sample is the first
minimum, a NaN margin before any number, so a non-finite sample fails; the
check passes when that margin is >= -slack; and the witness is built only
on failure.  The hypothesis stages of ``check_disp_sufficient`` and
``check_anti_assumption`` report their first failing law instead.  A
checker handed no laws, or laws of no atoms, raises ``ConditionError``.
"""
from __future__ import annotations

from dataclasses import fields
from itertools import chain

import numpy as np

from .models import HatTable, Model, hat_derivative_table
from .monotonicity import LambdaVec
from .reports import ConditionReport

PASS_SLACK = 1e-12
# Relative slack of the eigenvalue tests; the hat derivatives are exact.
REL_TOL = 1e-8


class ConditionError(ValueError):
    pass


def _require_laws(*stacks: np.ndarray) -> None:
    """A stack of laws with no laws, or laws of no atoms, is a
    ``ConditionError`` naming its shape: no checker has a margin to judge."""
    for stack in stacks:
        if np.size(stack) == 0:
            raise ConditionError(f"need at least one law of at least one atom, got "
                                 f"laws of shape {np.shape(stack)}")


def make_condition_samples(n_samples: int, n_atoms: int = 16, seed: int = 0) -> tuple:
    """(xi, p): the (n_samples, n_atoms) states and momenta of Gaussian laws
    whose momenta come from alternating affine and clipped-polynomial
    feedbacks p = phi(xi), polynomial momenta clipped to [-3, 3].  A set of
    no laws, or of laws of no atoms, is a ``ConditionError``.

    One generator draws, in law order, each law's feedback coefficients and
    then its states: an even law's intercept ~ N(0, 0.5^2) and slope
    ~ N(0, 1), an odd law's four cubic coefficients ~ N(0, 0.5^2), then
    n_atoms states ~ N(0, 1).  All laws come from one standard-normal draw,
    each value loc + scale z as the generator's ``normal`` forms it."""
    if n_samples < 1 or n_atoms < 1:
        raise ConditionError(f"need at least one law of at least one atom, got "
                             f"{n_samples} laws of {n_atoms} atoms")
    # Law k starts at (k // 2) pair + (k % 2) (2 + n_atoms) of the draw.
    pair = 6 + 2 * n_atoms
    z = np.random.default_rng(seed).standard_normal(
        n_samples // 2 * pair + n_samples % 2 * (2 + n_atoms))
    even = np.arange((n_samples + 1) // 2) * pair
    odd = even[:n_samples // 2] + 2 + n_atoms
    atoms = np.arange(n_atoms)
    xi = np.empty((n_samples, n_atoms))
    p = np.empty((n_samples, n_atoms))
    xi[0::2] = 0.0 + 1.0 * z[even[:, None] + 2 + atoms]
    xi[1::2] = 0.0 + 1.0 * z[odd[:, None] + 4 + atoms]
    intercept, slope = 0.0 + 0.5 * z[even, None], 0.0 + 1.0 * z[even + 1, None]
    p[0::2] = intercept + slope * xi[0::2]
    # Horner's rule as np.polynomial.polynomial.polyval runs it, one law a row.
    coeffs = 0.0 + 0.5 * z[odd[:, None] + np.arange(4)]
    x = xi[1::2]
    cubic = coeffs[:, 3:] + x * 0
    for i in (2, 1, 0):
        cubic = coeffs[:, i:i + 1] + cubic * x
    p[1::2] = np.clip(cubic, -3.0, 3.0)
    return xi, p


def forcings(table: HatTable, eta: np.ndarray, gz: np.ndarray) -> tuple:
    """(pi, chi): the mean-field forcings pi = (h_prho1 eta + h_prho2 gz) / N^2
    and chi = (h_xrho1 eta + h_xrho2 gz) / N^2 of (..., N) stacks eta and
    gz = gamma + zeta, a matrix-vector product with the measure tables,
    whose row i is base atom i.  Each stacked vector is its own product, so
    each entry is bit-identical to a one-vector request."""
    n = table.h_pp.shape[-1]
    return tuple((h_eta @ eta[..., None] + h_gz @ gz[..., None])[..., 0] / n**2
                 for h_eta, h_gz in ((table.h_prho1, table.h_prho2),
                                     (table.h_xrho1, table.h_xrho2)))


def form_rows(table: HatTable, weights: tuple, eta: np.ndarray, gamma: np.ndarray,
              zeta: np.ndarray, pi: np.ndarray, chi: np.ndarray) -> tuple:
    """(K_eta, K_gamma, K_zeta): the rows of the quadratic form
    w_L L + w_Ibar Ibar + w_DX2 DX2 at v = (eta, gamma, zeta), for
    weights = (w_L, w_Ibar, w_DX2) and the ``forcings`` (pi, chi) of v, so
    that the form is sum(eta K_eta + gamma K_gamma + zeta K_zeta) over the
    atoms.  The one statement of the forms' coefficients: ``form_matrices``
    reads it at unit vectors, ``sufficient_matrix`` through it, and the
    traces at the flow's states (``propagation.evaluate_rhs_formulas``).

    v . L v is the left-hand side of the Lasry-Lions propagation condition;
    v . Ibar v and v . DX2 v are the time derivatives of the curvature pairing
    Ibar = E[G dX] and of the second moment E[dX^2] along the first-variation
    system at (dX, G, U) = (eta, gamma, zeta):

        L    = sum[(zeta - gamma) pi - eta chi] + sum h_pp zeta^2 / N
        Ibar = 2 sum gamma pi + sum[h_pp gamma (gamma + 2 zeta) - h_xx eta^2] / N
        DX2  = 2 sum eta pi + 2 sum[h_xp eta^2 + h_pp eta (gamma + zeta)] / N

    A term of zero weight is not evaluated, and a row with none is 0.0."""
    w_ll, w_ibar, w_dx2 = weights
    n = table.h_pp.shape[-1]

    def row(forcing: tuple, point: tuple):
        """The sum of weight * forcing over (weight, forcing) and of
        weight * hat entry / N * state over (weight, entry, state)."""
        parts = chain((weight * value for weight, value in forcing if weight),
                      (weight * entry / n * state for weight, entry, state in point if weight))
        return sum(parts, next(parts, 0.0))   # 0.0 when no part has a weight

    return (row(((-w_ll, chi), (2.0 * w_dx2, pi)),
                ((2.0 * w_dx2, table.h_xp, eta), (-w_ibar, table.h_xx, eta),
                 (2.0 * w_dx2, table.h_pp, gamma), (2.0 * w_dx2, table.h_pp, zeta))),
            row(((2.0 * w_ibar - w_ll, pi),),
                ((w_ibar, table.h_pp, gamma), (2.0 * w_ibar, table.h_pp, zeta))),
            row(((w_ll, pi),), ((w_ll, table.h_pp, zeta),)))


def form_matrices(table: HatTable, weights: tuple) -> np.ndarray:
    """The symmetric (3N, 3N) matrix of the quadratic form
    w_L L + w_Ibar Ibar + w_DX2 DX2 of ``form_rows`` over v = (eta, gamma,
    zeta) on one law of N atoms; a table of a stack of laws gives a
    (..., 3N, 3N) stack, each law's matrix bit-identical to its own.  The
    Lasry-Lions gate's form has weights (1, 0, 0), the displacement lambda
    gate's (1, 1, lam).

    Row (c, j) of the unsymmetrised matrix is ``form_rows`` at the unit
    vector of atom j in block c, so that v . M v is the form; the table gains
    an axis after its laws, along which the N unit vectors of a block stack.
    """
    n = table.h_pp.shape[-1]
    lead = table.h_pp.shape[:-1]
    spread = table[(slice(None),) * len(lead) + (None,)]
    # blocks[..., c, j, r, :] is row r of form_rows at the unit vector of
    # atom j in block c; v[r] stacks the N unit vectors' part in block r.
    blocks = np.empty((*lead, 3, n, 3, n))
    for c, v in enumerate(np.eye(3)[:, :, None, None] * np.eye(n)):
        for r, row in enumerate(form_rows(spread, weights, *v,
                                          *forcings(spread, v[0], v[1] + v[2]))):
            blocks[..., c, :, r, :] = row
    # M <- (M + M^T) / 2 in place: numpy copies the transpose it overlaps.
    matrices = blocks.reshape(*lead, 3 * n, 3 * n)
    matrices += np.swapaxes(matrices, -1, -2)
    matrices *= 0.5
    return matrices


def _eigenvalues(matrices: np.ndarray) -> tuple:
    """(eigenvalues, finite): the ascending eigenvalues of each symmetric
    matrix of the stack, a row of NaN for a non-finite one, and which are
    finite.  The stack's non-finite matrices are zeroed: eigvalsh does not
    converge on them."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    matrices[~finite] = 0.0
    return np.where(finite[:, None], np.linalg.eigvalsh(matrices), np.nan), finite


def _eigen_report(condition: str, matrices: np.ndarray, laws: int, tol: float | None,
                  sign: int = 1, blocks: tuple = ("eta", "gamma", "zeta"),
                  details: dict | None = None) -> ConditionReport:
    """Judge value = N lambda of each law's (len(blocks) N, len(blocks) N)
    form matrix against tol (default REL_TOL max(1, |value|)): with sign = 1
    lambda is the largest eigenvalue, the form's maximum over unit-RMS v,
    and the margin is tol - value; with sign = -1 it is the smallest, the
    form's minimum, and the margin is value + tol.  matrices holds either
    one matrix per law or, for a law-free table (``_distinct_laws``), one
    matrix that stands for all laws: either way the report has laws
    samples, and the worst of equal margins is the first, law 0.  A failing
    report's witness is that unit-RMS eigenvector, split into blocks.  A
    non-finite matrix has a NaN value and margin, so the first one is the
    witness of a failing report; the stack's non-finite matrices are
    zeroed.  details default to the largest value."""
    n = matrices.shape[-1] // len(blocks)
    column = -1 if sign > 0 else 0
    eigenvalues, finite = _eigenvalues(matrices)
    values = n * eigenvalues[:, column]
    threshold = tol if tol is not None else REL_TOL * np.maximum(1.0, np.abs(values))
    margins = np.broadcast_to(threshold - sign * values, laws)

    def witness(worst: int) -> dict:
        found = {"sample": worst, "value": float(values[worst])}
        if finite[worst]:
            vector = np.sqrt(n) * np.linalg.eigh(matrices[worst])[1][:, column]
            found.update((name, part.tolist())
                         for name, part in zip(blocks, np.split(vector, len(blocks))))
        return found

    return ConditionReport.judge(
        condition, margins, tol if tol is not None else REL_TOL, witness, PASS_SLACK,
        {"max_value": float(np.max(values))} if details is None else details)


def _distinct_laws(table: HatTable) -> HatTable:
    """The laws of a (laws, ...) table that the forms must judge: law 0
    alone when every other law's form entries (every field but h_p, which no
    form reads) are bitwise equal to law 0's, else every law.  Each field is
    compared as uint64 bits, one field at a time with no copy of the table,
    so a signed zero or a NaN payload is a difference."""
    for field in fields(table):
        if field.name != "h_p":
            bits = getattr(table, field.name).view(np.uint64)
            if not (bits[1:] == bits[:1]).all():
                return table
    return table[:1]


def _gate_matrices(model: Model, xi: np.ndarray, p: np.ndarray,
                   weights: tuple) -> np.ndarray:
    """The gate's ``form_matrices`` over the distinct laws of (xi, p): from
    one hat table over all laws, a (1, 3N, 3N) stack when that table is
    law-free (``_distinct_laws``), else the (laws, 3N, 3N) stack, built
    without floating-point warnings: an overflow gives non-finite forms,
    which ``_eigen_report`` fails."""
    _require_laws(xi, p)
    with np.errstate(all="ignore"):
        return form_matrices(_distinct_laws(hat_derivative_table(model, xi, p)), weights)


def check_ll_condition(model: Model, xi: np.ndarray, p: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Exact test of the Lasry-Lions quadratic-form condition on each law
    (xi, p): the form's maximum over unit-RMS (eta, gamma, zeta) is <= tol."""
    return _eigen_report("lasry_lions_hamiltonian",
                         _gate_matrices(model, xi, p, (1.0, 0.0, 0.0)), len(xi), tol)


def check_disp_condition(model: Model, lam: float, xi: np.ndarray, p: np.ndarray,
                         tol: float | None = None) -> ConditionReport:
    """Exact test of the displacement lambda quadratic-form condition on each
    law (xi, p): the maximum of L + Ibar + lam DX2 over unit-RMS
    (eta, gamma, zeta) is <= tol."""
    if lam < 0:
        raise ConditionError("lambda must be nonnegative")
    return _eigen_report("displacement_hamiltonian",
                         _gate_matrices(model, xi, p, (1.0, 1.0, lam)), len(xi), tol)


def control_coupling(model: Model) -> float | None:
    """c when the model has the control-coupled form b0 = (1, 0, 0),
    f0 = (0, 0, 0, c) of the ll/disp/anti presets, else None."""
    if model.b0 == (1.0, 0.0, 0.0) and model.f0[:3] == (0.0, 0.0, 0.0):
        return model.f0[3]
    return None


def sufficient_matrix(table: HatTable, lam: float, c0: float) -> np.ndarray:
    """The symmetric (N, N) matrix S of the (xi, eta)-only sufficient
    condition on one law: the Schur bound

        S = -M_eta,eta - N M_gamma,eta^T diag(1 / (-h_pp - c0)) M_gamma,eta

    of the displacement matrix M = ``form_matrices(table, (1, 1, lam))``,
    whose form reads gamma and zeta only through gamma + zeta.  Under the
    hypotheses |h_prho2| <= c0 and h_pp < -c0 the form's gamma + zeta block
    is at most diag(h_pp + c0) / N, so eta . S eta bounds minus its maximum
    over gamma + zeta.  A table of a stack of laws gives the stack of their
    matrices, each bit-identical to its own."""
    n = table.h_pp.shape[-1]
    matrices = form_matrices(table, (1.0, 1.0, lam))
    mixed = matrices[..., n:2 * n, :n]
    s = (-matrices[..., :n, :n] - n * np.swapaxes(mixed, -1, -2)
         @ (mixed / (-table.h_pp - c0)[..., None]))
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def check_disp_sufficient(model: Model, lam: float, c0: float, xi: np.ndarray,
                          p: np.ndarray, tol: float | None = None) -> ConditionReport:
    """Single-variable sufficient condition for the displacement form.

    Hypotheses checked first on every law (xi, p): |Hhat_{p rho2}| <= c0
    and Hhat_pp < -c0; the first law that breaks one, or has a NaN bound, is
    the witness, h_prho2 before h_pp.  Then the minimum of the (xi, eta)-only
    form of ``sufficient_matrix`` over unit-RMS eta, N times its smallest
    eigenvalue, must be >= -tol (default REL_TOL max(1, |value|)), judged by
    ``_eigen_report``, both stages over the distinct laws of one hat table
    (``_distinct_laws``).  For a control-coupled model the scalar parameter
    inequality is evaluated exactly and reported alongside, and it must
    hold too: when it fails, the report's margin is kappa - rhs and its
    witness names the inequality, unless the eigenvalue stage's worst law
    has a smaller or NaN margin.
    """
    if c0 < 0:
        raise ConditionError("c0 must be nonnegative")
    _require_laws(xi, p)
    details: dict = {}
    laws = len(xi)
    # An overflowing model gives non-finite entries: a NaN bound fails its
    # hypothesis and a non-finite matrix its eigenvalue test, without
    # floating-point warnings.
    with np.errstate(all="ignore"):
        if control_coupling(model) is not None:
            details["scalar_inequality"] = _scalar_disp_inequality(model, c0)
        table = _distinct_laws(hat_derivative_table(model, xi, p))
        prho2 = np.abs(table.h_prho2).reshape(len(table.h_pp), -1).max(axis=1)
        pp = table.h_pp.max(axis=1)
        over = ~(prho2 <= c0 + 1e-9)
        bad = np.flatnonzero(over | ~(pp < -c0 - 1e-12))
    if bad.size:
        idx = int(bad[0])
        bound, value = ("h_prho2", prho2[idx]) if over[idx] else ("h_pp", pp[idx])
        return ConditionReport(
            condition="displacement_sufficient",
            n_samples=laws,
            worst_margin=-np.inf,
            passed=False,
            tolerance=tol if tol is not None else REL_TOL,
            witness={"sample": idx, "bound": bound, "value": float(value), "c0": c0},
            failure_kind="hypothesis",
            details=details,
        )
    with np.errstate(all="ignore"):
        matrices = sufficient_matrix(table, lam, c0)
    report = _eigen_report("displacement_sufficient", matrices, laws, tol, sign=-1,
                           blocks=("eta",), details=details)
    scalar = details.get("scalar_inequality")
    if scalar is not None and not scalar["holds"]:
        # The inequality's margin kappa - rhs, unless a law is worse.
        margin = scalar["kappa"] - scalar["rhs"]
        if report.passed or margin < report.worst_margin:
            report.worst_margin, report.passed = margin, False
            report.witness = {"inequality": "scalar_inequality", "kappa": scalar["kappa"],
                              "rhs": scalar["rhs"]}
    return report


def _curvature_infimum(f1_x: tuple) -> float:
    """inf over the real line of f1_x'', for the ascending coefficients f1_x:
    -inf when f1_x'' has odd degree or a negative leading coefficient, else
    its least value at a critical point.  Every root of f1_x''' enters by
    its real part, which adds only points where f1_x'' is no smaller."""
    poly = np.polynomial.polynomial
    curvature = poly.polytrim(poly.polyder(f1_x, 2))
    degree = len(curvature) - 1
    if degree % 2 or curvature[-1] < 0.0:
        return -np.inf
    if degree == 0:
        return float(curvature[0])
    return float(np.min(poly.polyval(poly.polyroots(poly.polyder(curvature)).real,
                                     curvature)))


def _scalar_disp_inequality(model: Model, c0: float) -> dict:
    """Exact parameter form of the sufficient condition for a control-coupled
    model: curvature of the x-cost must dominate the state coupling plus the
    normalised square of the momentum couplings.  kappa is the infimum of
    f1_x'' over the real line (``_curvature_infimum``) and d1 the supremum
    of |dB/dm1| over all means: |B's m1 coefficient| when B has no m1^2 or
    m1 m2 term, else inf."""
    c = control_coupling(model)
    chat = c / (1.0 - c)
    q1, q2 = model.q1, model.q2
    bmean = model.B.coeffs
    d1 = abs(bmean[1]) if bmean[3] == bmean[4] == 0.0 else np.inf
    kappa = _curvature_infimum(model.f1_x)
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


# The derivative bounds of the anti-monotone assumption, in the order that
# ``check_anti_assumption`` reports the first failure.
ANTI_BOUNDS = ("abs_h_xp<=gamma_hi*l0", "abs_h_xx<=gamma_hi*l0", "abs_h_pp<=l_bar",
               "abs_h_xrho1<=l_bar", "abs_h_xrho2<=l_bar", "abs_h_prho1<=l_bar",
               "abs_h_prho2<=l_bar", "-h_xp>=l0", "-h_xx>=gamma_lo*l0")


def check_anti_assumption(model: Model, lvec: LambdaVec, l0: float,
                          gamma_lo: float, gamma_hi: float, l_bar: float,
                          lu_xx: float, xi: np.ndarray, p: np.ndarray) -> ConditionReport:
    """Staged verification of the anti-monotone propagation hypotheses.

    (i) the ``ANTI_BOUNDS`` derivative bounds on every law (xi, p), the first
    failure in (law, bound) order the witness; (ii) the contraction number
    theta1 < 1 (reported first when it fails: the gain matrix would be
    singular); (iii)/(iv) the assembled gain/loss matrices must satisfy
    l_bar * sup-eigenvalue(A1^{-1} A2) <= l0.
    """
    if not gamma_hi > gamma_lo > 0:
        raise ConditionError("need gamma_hi > gamma_lo > 0")
    _require_laws(xi, p)
    slack = 1e-9
    n_samples = len(xi)

    def peak(entry: np.ndarray) -> np.ndarray:
        """The largest |entry| of each law."""
        return np.abs(entry).reshape(n_samples, -1).max(axis=1)

    # (laws, 9) margins, in the order of ANTI_BOUNDS; a NaN one fails.
    with np.errstate(all="ignore"):
        table = hat_derivative_table(model, xi, p)
        margins = np.stack([
            gamma_hi * l0 - peak(table.h_xp),
            gamma_hi * l0 - peak(table.h_xx),
            *(l_bar - peak(getattr(table, name)) for name in
              ("h_pp", "h_xrho1", "h_xrho2", "h_prho1", "h_prho2")),
            (-table.h_xp).min(axis=1) - l0,
            (-table.h_xx).min(axis=1) - gamma_lo * l0,
        ], axis=1)
    bounds_margin = float(np.min(margins))
    failing = np.argwhere(~(margins >= -slack))
    if failing.size:
        idx, bound = failing[0]
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=bounds_margin, passed=False, tolerance=slack,
            witness={"sample": int(idx), "bound": ANTI_BOUNDS[bound],
                     "margin": float(margins[idx, bound])},
            failure_kind="derivative_bounds",
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


def check_f_monotone(model: Model, xi1: np.ndarray, a1: np.ndarray, xi2: np.ndarray,
                     a2: np.ndarray, tol: float = 1e-10) -> ConditionReport:
    """Four-term cross-difference monotonicity of the running cost in the
    joint law, under the hypothesis b(x, a, nu) = a.

    Row k of the (pairs, N) arrays xi1, a1, xi2 and a2 is pair k: the
    coupled (state, control) atoms of its two laws.  A pair whose cross
    difference is not finite fails the check.
    """
    _require_laws(xi1, a1, xi2, a2)
    if (model.b0, model.b1_x, model.B.coeffs) != ((-1.0, 0.0, 0.0), (0.0,), (0.0,) * 6):
        return ConditionReport(
            condition="cost_cross_monotonicity", n_samples=len(xi1),
            worst_margin=-np.inf, passed=False, tolerance=tol,
            witness={"b0": list(model.b0), "b1_x": list(model.b1_x),
                     "b1_mean": list(model.B.coeffs)},
            failure_kind="hypothesis",
            details={"reason": "drift is not the identity in the control"},
        )

    def mean_cost(xi, a, law):
        return np.mean(model.cost(xi, a, *law), axis=-1)

    with np.errstate(all="ignore"):
        law1 = (np.mean(xi1, axis=-1, keepdims=True), np.mean(a1, axis=-1, keepdims=True))
        law2 = (np.mean(xi2, axis=-1, keepdims=True), np.mean(a2, axis=-1, keepdims=True))
        values = (mean_cost(xi1, a1, law1) + mean_cost(xi2, a2, law2)
                  - mean_cost(xi1, a1, law2) - mean_cost(xi2, a2, law1))
    return ConditionReport.judge("cost_cross_monotonicity", values + tol, tol,
                                 lambda k: {"pair": k, "value": float(values[k])})
