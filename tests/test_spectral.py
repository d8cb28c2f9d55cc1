"""Shift operator, Fourier basis, and filter-application tests.

The time-domain shift implementation serves as the independent oracle
for every frequency-domain path.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import causal_oracle, rel_err
from seqfilt import spectral as sp


@dataclass(frozen=True)
class CyclicShift:
    """Delay-by-one operator on a ring of `size` nodes."""

    size: int

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.size:
            raise sp.ShapeError(f"signal has leading dimension {x.shape[0]}, expected {self.size}")
        return np.roll(x, 1, axis=0)

    def dense(self):
        """Materialize the permutation matrix (row i has a 1 at column i-1 mod M)."""
        idx = np.arange(self.size)
        s = np.zeros((self.size, self.size))
        s[idx, (idx - 1) % self.size] = 1.0
        return s


def make_shift(size: int) -> CyclicShift:
    if size < 1:
        raise ValueError(f"shift operator needs at least one node, got {size}")
    return CyclicShift(size)


class TestShift:
    def test_single_node_is_identity(self):
        op = make_shift(1)
        x = np.array([3.5])
        assert np.array_equal(op.apply(x), x)
        assert np.array_equal(op.dense(), np.eye(1))

    def test_one_hot_delay(self):
        op = make_shift(3)
        assert np.array_equal(op.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0])

    def test_one_hot_wraps_around(self, rng):
        m = 7
        op = make_shift(m)
        for j in range(m):
            x = np.zeros(m)
            x[j] = 1.0
            out = op.apply(x)
            assert out[(j + 1) % m] == 1.0 and out.sum() == 1.0

    def test_dense_is_permutation(self):
        s = make_shift(4).dense()
        for i in range(4):
            assert s[i, (i - 1) % 4] == 1.0
        assert np.array_equal(s.sum(axis=0), np.ones(4))
        assert np.array_equal(s.sum(axis=1), np.ones(4))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_shift(0)

    def test_wrong_signal_length(self):
        with pytest.raises(sp.ShapeError):
            make_shift(3).apply(np.zeros(4))


class TestBasis:
    def test_m2_closed_form(self):
        basis = sp.make_basis(2, 2)
        root2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.forward, root2 * np.array([[1, 1], [1, -1]]), atol=1e-15)
        assert np.allclose(basis.eigenvalues, [1.0, -1.0], atol=1e-15)
        assert np.allclose(basis.vandermonde, [[1, 1, 1], [1, -1, 1]], atol=1e-15)

    def test_m4_eigenvalues_in_frequency_order(self):
        lam = sp.make_basis(4).eigenvalues
        assert np.allclose(lam, [1, -1j, -1, 1j], atol=1e-15)

    def test_vandermonde_first_column_exactly_one(self):
        for m in (1, 3, 5, 17):
            van = sp.make_basis(m, 4).vandermonde
            assert np.all(van[:, 0] == 1.0 + 0.0j)

    def test_eigenvalues_on_unit_circle(self):
        for m in (2, 9, 31):
            lam = sp.make_basis(m).eigenvalues
            assert np.abs(np.abs(lam) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 8, 33, 64])
    def test_unitary(self, m):
        u = sp.make_basis(m).forward
        assert np.abs(u.conj().T @ u - np.eye(m)).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_columns_are_shift_eigenvectors(self, m):
        basis = sp.make_basis(m)
        dense = make_shift(m).dense()
        for i in range(m):
            col = basis.eigenvectors[:, i]
            assert np.abs(dense @ col - basis.eigenvalues[i] * col).max() <= 1e-10

    def test_gft_round_trip(self, rng):
        basis = sp.make_basis(9)
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.abs(basis.igft(basis.gft(x)) - x).max() <= 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sp.make_basis(0)
        with pytest.raises(ValueError):
            sp.make_basis(4, -1)


class TestFixedFilter:
    def test_identity_taps(self, rng):
        x = rng.normal(size=5)
        assert np.array_equal(sp.apply_fixed_filter_time(5, [1.0], x), x)

    def test_pure_delay(self):
        out = sp.apply_fixed_filter_time(3, [0.0, 1.0], np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [3.0, 1.0, 2.0])

    def test_freq_identity(self, rng):
        basis = sp.make_basis(6, 0)
        x = rng.normal(size=6)
        assert np.abs(sp.apply_fixed_filter_freq(basis, [1.0], x) - x).max() <= 1e-12

    def test_freq_zero_taps(self, rng):
        basis = sp.make_basis(6, 2)
        x = rng.normal(size=6)
        out = sp.apply_fixed_filter_freq(basis, np.zeros(3), x)
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("m,k", [(6, 3), (8, 4)])
    def test_time_freq_agree(self, m, k, rng):
        taps = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        t = sp.apply_fixed_filter_time(m, taps, x)
        f = sp.apply_fixed_filter_freq(sp.make_basis(m, k), taps, x)
        assert np.abs(t - f).max() <= 1e-10

    def test_shape_errors(self):
        with pytest.raises(sp.ShapeError):
            sp.apply_fixed_filter_time(4, [1.0], np.zeros(3))
        with pytest.raises(sp.ShapeError):
            sp.apply_fixed_filter_freq(sp.make_basis(4, 1), [1.0], np.zeros(4))


class TestNodeVariantFilter:
    def test_identical_rows_reduce_to_fixed(self, rng):
        m, k = 6, 3
        taps = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        h = np.tile(taps, (m, 1))
        nv = sp.apply_nv_filter_time(m, h, x)
        fixed = sp.apply_fixed_filter_time(m, taps, x)
        assert np.abs(nv - fixed).max() <= 1e-10

    def test_one_hot_rows_are_identity(self, rng):
        m = 5
        h = np.zeros((m, 3))
        h[:, 0] = 1.0
        x = rng.normal(size=m)
        assert np.abs(sp.apply_nv_filter_time(m, h, x) - x).max() == 0.0

    def test_freq_identity_rows(self, rng):
        m = 8
        basis = sp.make_basis(m, 2)
        h = np.zeros((m, 3))
        h[:, 0] = 1.0
        xf = rng.normal(size=m) + 1j * rng.normal(size=m)
        assert np.abs(sp.apply_nv_filter_freq(basis, h, xf) - xf).max() <= 1e-10

    def test_fixed_rows_give_diagonal_response(self, rng):
        m, k = 8, 3
        basis = sp.make_basis(m, k)
        taps = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        h = np.tile(taps, (m, 1))
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        via_nv = basis.igft(sp.apply_nv_filter_freq(basis, h, basis.gft(x)))
        via_diag = sp.apply_fixed_filter_freq(basis, taps, x)
        assert np.abs(via_nv - via_diag).max() <= 1e-10

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_round_trip_equals_time_oracle(self, m, rng):
        k = max(0, m - 2)
        h = rng.normal(size=(m, k + 1)) + 1j * rng.normal(size=(m, k + 1))
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        basis = sp.make_basis(m, k)
        freq = basis.igft(sp.apply_nv_filter_freq(basis, h, basis.gft(x)))
        time = sp.apply_nv_filter_time(m, h, x)
        assert np.abs(freq - time).max() / np.abs(time).max() <= 1e-9

    def test_row_count_must_match(self, rng):
        basis = sp.make_basis(6, 2)
        with pytest.raises(sp.ShapeError):
            sp.apply_nv_filter_freq(basis, np.ones((5, 3)), np.zeros(6))


class TestCausalFilter:
    def test_order_zero_ones_is_identity(self, rng):
        x = rng.normal(size=(6, 3))
        h = np.ones((6, 1))
        out = sp.causal_filter(6, 0, h, x)
        assert np.abs(out - x).max() <= 1e-12

    def test_delay_with_zero_boundary(self):
        h = np.zeros((3, 3))
        h[:, 1] = 1.0
        x = np.array([[1.0], [2.0], [3.0]])
        out = sp.causal_filter(3, 2, h, x)
        assert np.allclose(out, [[0.0], [1.0], [2.0]], atol=1e-12)

    def test_matches_direct_summation(self, rng):
        n, k = 5, 3
        h = rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 4))
        out = sp.causal_filter(n, k, h, x)
        assert np.abs(out - causal_oracle(h, x, k)).max() <= 1e-12

    def test_complex_taps_match_real_part_oracle(self, rng):
        n, k = 7, 4
        h = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 2))
        out = sp.causal_filter(n, k, h, x)
        assert np.abs(out - causal_oracle(h, x, k)).max() <= 1e-12

    def test_causality_perturbation(self, rng):
        n, k = 8, 5
        h = rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 3))
        base = sp.causal_filter(n, k, h, x)
        for j in (2, 5, 7):
            bumped = x.copy()
            bumped[j] += rng.normal(size=3) * 10
            out = sp.causal_filter(n, k, h, bumped)
            assert np.abs(out[:j] - base[:j]).max() <= 1e-12

    def test_padded_tap_rows_are_inert(self, rng):
        n, k = 6, 4
        size = n + k
        basis = sp.make_basis(size, k)
        h_pad = np.zeros((size, k + 1), dtype=complex)
        h_pad[:n] = rng.normal(size=(n, k + 1))
        x_pad = np.zeros((size, 2))
        x_pad[:n] = rng.normal(size=(n, 2))
        clean = (sp.nv_mixing_matrix(basis, h_pad) @ basis.gft(x_pad)).real[:n]
        h_junk = h_pad.copy()
        h_junk[n:] = rng.normal(size=(k, k + 1)) + 1j * rng.normal(size=(k, k + 1))
        junk = (sp.nv_mixing_matrix(basis, h_junk) @ basis.gft(x_pad)).real[:n]
        assert np.abs(clean - junk).max() <= 1e-12

    def test_linearity(self, rng):
        n, k = 6, 3
        h = rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        a, b = 1.7, -0.3
        combined = sp.causal_filter(n, k, h, a * x + b * y)
        separate = a * sp.causal_filter(n, k, h, x) + b * sp.causal_filter(n, k, h, y)
        assert np.abs(combined - separate).max() <= 1e-12

    def test_matches_explicit_gft_composition(self, rng):
        n, k = 5, 3
        size = n + k
        h = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 2))
        direct = sp.causal_filter(n, k, h, x)
        basis = sp.make_basis(size, k)
        h_pad = np.zeros((size, k + 1), dtype=complex)
        h_pad[:n] = h
        x_pad = np.zeros((size, 2))
        x_pad[:n] = x
        composed = basis.igft(
            sp.apply_nv_filter_freq(basis, h_pad, basis.gft(x_pad))
        ).real[:n]
        assert np.abs(direct - composed).max() <= 1e-12

    def test_shape_errors(self, rng):
        with pytest.raises(sp.ShapeError):
            sp.causal_filter(4, 2, np.ones((3, 3)), np.zeros((4, 1)))
        with pytest.raises(sp.ShapeError):
            sp.causal_filter(4, 2, np.ones((4, 2)), np.zeros((4, 1)))


class TestPrecomputeOperator:
    def test_identity_taps(self):
        h = np.zeros((5, 3))
        h[:, 0] = 1.0
        assert np.array_equal(sp.precompute_operator(5, 2, h), np.eye(5))

    def test_strictly_banded_lower_triangular(self, rng):
        n, k = 9, 3
        h = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
        g = sp.precompute_operator(n, k, h)
        for i in range(n):
            for j in range(n):
                if j > i or i - j > k:
                    assert g[i, j] == 0.0

    def test_operator_equals_causal_filter(self, rng):
        n, k = 8, 5
        h = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
        g = sp.precompute_operator(n, k, h)
        for _ in range(5):
            x = rng.normal(size=(n, 4))
            assert np.abs(g @ x - sp.causal_filter(n, k, h, x)).max() <= 1e-12
