import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.models import QuadraticTerminalCost
from mfgclab.solver import _quantile_dist


def mean(x):
    """A cloud's mean, with the uniform weight vector the package uses."""
    return float(np.full(x.shape[0], 1.0 / x.shape[0]) @ x)


class TestMoment:
    def test_first_moment(self):
        # The terminal cost g = x E[xi] reads the mean of its cloud of atoms.
        g = QuadraticTerminalCost(xm=1.0)
        assert g(1.0, np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_single_atom(self):
        g = QuadraticTerminalCost(xm=1.0)
        for c in (-2.5, 0.0, 7.0):
            assert g(1.0, np.array([c])) == pytest.approx(c)


class TestFlowDistance:
    """The Picard residual's metric: 2-Wasserstein distance of equal-size
    uniform clouds by the sorted-quantile coupling."""

    def test_identical_is_zero(self):
        a = np.array([0.3, -1.0, 2.0])
        assert _quantile_dist(a, a) == 0.0

    def test_translation(self):
        a = np.zeros(7)
        for c in (-1.5, 0.25, 4.0):
            assert _quantile_dist(a, np.full(7, c)) == pytest.approx(abs(c))

    def test_two_atom_oracle(self):
        # Enumerate both couplings of {0,1} vs {1,2}: the sorted coupling wins.
        xs = np.array([0.0, 1.0])
        ys = np.array([1.0, 2.0])
        best = min(
            np.sqrt(np.mean((xs - np.array(perm)) ** 2))
            for perm in itertools.permutations(ys)
        )
        assert best == pytest.approx(1.0)
        assert _quantile_dist(xs, ys) == pytest.approx(best)

    def test_metric_properties_on_seeded_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            a, b, c = rng.normal(size=(3, n))
            dab = _quantile_dist(a, b)
            dba = _quantile_dist(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert dab <= _quantile_dist(a, c) + _quantile_dist(c, b) + 1e-12

    def test_zero_iff_sorted_supports_match(self):
        a = np.array([0.0, 1.0, 2.0])
        assert _quantile_dist(a, np.array([2.0, 0.0, 1.0])) == 0.0
        assert _quantile_dist(a, np.array([0.0, 1.0, 2.5])) > 0.0

    def test_rows_equal_one_cloud_distances(self):
        # The Picard residual takes all levels at once; each row must equal
        # the distance of that row's pair of clouds alone, bit for bit.
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3, 20, 16))
        rows = _quantile_dist(a, b)
        assert rows.shape == (3, 20)
        for r in np.ndindex(3, 20):
            assert rows[r] == _quantile_dist(a[r], b[r])
            assert rows[r] == np.sqrt(np.mean((np.sort(a[r]) - np.sort(b[r])) ** 2))


class TestQuantileClouds:
    def test_gaussian_cloud_moments(self):
        g = gaussian_quantile_cloud(4096, mean=1.5, sd=2.0)
        assert g.shape == (4096,)
        assert mean(g) == pytest.approx(1.5, abs=1e-12)
        assert mean(g**2) - mean(g) ** 2 == pytest.approx(4.0, rel=5e-3)

    def test_gaussian_cloud_symmetric(self):
        g = gaussian_quantile_cloud(16)
        assert np.allclose(np.sort(g) + np.sort(g)[::-1], 0.0, atol=1e-12)

    def test_gaussian_cloud_matches_scipy_ndtri(self):
        # The stdlib inverse CDF agrees with scipy's ndtri to round-off: at
        # most 4 ulp, which is 1.3e-15 at the |z| = 2.3 atoms of n = 47, 48.
        from scipy.special import ndtri

        for n in range(1, 65):
            np.testing.assert_allclose(gaussian_quantile_cloud(n),
                                       ndtri((np.arange(n) + 0.5) / n),
                                       rtol=1e-15, atol=1e-15)

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy costs more start-up than the rest of the CLI together; only
        # the tests and the benchmark's oracle use it.
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import mfgclab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"
