"""The envelope check one sample at a time.

``models.verify_envelope_identities`` evaluates all of its samples at once;
``envelope_loop`` is the per-sample loop it replaced, on Python floats,
kept as the oracle that its report is compared against bit for bit.
"""
import numpy as np

from mfgclab.models import FD_STEP_POINT, hamiltonian
from mfgclab.reports import ConditionReport


def envelope_loop(model, sample_count=200, seed=0, tol=1e-6, fd_step=FD_STEP_POINT,
                  cloud_size=8):
    """Check b(x, a*, nu) = dH/dp and f(x, a*, nu) = H - p dH/dp on random
    triples, sample by sample; the worst sample is the first of least margin."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_residual = 0.0
    witness = None
    for k in range(sample_count):
        x = float(rng.normal(0.0, 2.0))
        p = float(rng.normal(0.0, 2.0))
        m1, m2 = (float(np.mean(rng.normal(0.0, 1.0, cloud_size))) for _ in range(2))
        a_star = float(model.control(x, p, m1, m2))
        h_val = float(hamiltonian(model, x, p, m1, m2))
        h = fd_step * max(1.0, abs(p))
        hp = float(hamiltonian(model, x, p + h, m1, m2)
                   - hamiltonian(model, x, p - h, m1, m2)) / (2.0 * h)
        r_drift = abs(float(model.drift(x, a_star, m1, m2)) - hp)
        r_cost = abs(float(model.cost(x, a_star, m1, m2)) - (h_val - p * hp))
        residual = max(r_drift, r_cost)
        margin = tol - residual
        if margin < worst:
            worst = margin
            worst_residual = residual
            witness = {"sample": k, "x": x, "p": p, "residual": residual}
    passed = worst >= 0.0
    return ConditionReport(
        condition="envelope_identities",
        n_samples=sample_count,
        worst_margin=float(worst),
        passed=passed,
        tolerance=tol,
        witness=None if passed else witness,
        details={"max_residual": worst_residual, "fd_step": fd_step},
    )
