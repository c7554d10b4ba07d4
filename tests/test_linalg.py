"""Kernel layer: exponentials, predicates, admission, the tolerance table, seeded sampling."""

import ast
import inspect
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eig_expm_hermitian, generator, random_hermitian, random_state, random_unitary, series_expm
from realsim import linalg
from realsim.dynamics import Hamiltonian


class TestMatexp:
    def test_zero_matrix(self):
        assert np.allclose(linalg.matexp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_planar_rotation_closed_form(self):
        # exp of theta * [[0,-1],[1,0]] is the rotation by theta.
        theta = 0.5
        g = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        )
        assert np.allclose(linalg.matexp(g), expected, atol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a /= np.linalg.norm(a, 2)
        assert np.allclose(linalg.matexp(a), series_expm(a), atol=1e-12)

    def test_large_hermitian_against_eig_oracle(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        h *= 32.0 / np.abs(np.linalg.eigvalsh(h)).max()
        gap = np.abs(linalg.matexp(1j * h) - eig_expm_hermitian(h)).max()
        assert gap <= 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        prod = linalg.matexp(a) @ linalg.matexp(-a)
        assert np.allclose(prod, np.eye(4), atol=1e-12)

    def test_real_input_real_output(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4))
        out = linalg.matexp(a)
        assert not np.iscomplexobj(out)

    def test_hermitian_generator_gives_unitary(self):
        h = random_hermitian(6, seed=15)
        u = linalg.matexp(1j * 7.3 * h)
        assert linalg.is_unitary(u)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.matexp(np.ones((2, 3)))

    @pytest.mark.parametrize("n, k, t", [(n, k, t) for n in (32, 64) for k in (1, 2) for t in (1.0, 5.0)]
                             + [(8, 1, 50.0)])
    def test_agrees_with_scipy_on_the_generator(self, n, k, t):
        # scipy's expm is the independent oracle; the package itself never imports scipy.
        from scipy.linalg import expm

        g = t * generator(Hamiltonian(random_hermitian(n, seed=n + k)), k)
        assert np.abs(linalg.matexp(g) - expm(g)).max() <= linalg.AGREEMENT_TOL

    @pytest.mark.parametrize("a, message", [
        (np.full((2, 2), 1.7e308), "^matexp input 1-norm inf is not finite$"),
        (np.diag([1e300, -1e300]) @ np.array([[0.0, -1.0], [1.0, 0.0]]), "^matexp result is not finite$"),
    ], ids=["infinite_norm", "overflowing_squares"])
    def test_non_finite_norm_or_result_rejected_without_a_warning(self, a, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                linalg.matexp(a)


class TestPredicates:
    def test_dagger_involution(self):
        a = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
        assert np.array_equal(linalg.dagger(linalg.dagger(a)), a)

    def test_dagger_reverses_products(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(
            linalg.dagger(a @ b), linalg.dagger(b) @ linalg.dagger(a), atol=1e-13
        )

    def test_is_unitary(self):
        assert linalg.is_unitary(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert not linalg.is_unitary(2 * np.eye(2))

    def test_is_hermitian(self):
        assert linalg.is_hermitian(np.array([[1.0, 1j], [-1j, 0.0]]))
        assert not linalg.is_hermitian(np.array([[1.0, 1j], [1j, 0.0]]))

    def test_is_psd(self):
        assert linalg.is_psd(np.diag([1.0, 0.0, 2.0]))
        assert not linalg.is_psd(np.diag([1.0, -1.0]))
        # Hermiticity is part of the definition here, not a separate check.
        assert not linalg.is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(-2.0, 8.0), st.booleans())
    def test_is_psd_agrees_with_the_eigenvalue_floor(self, seed, n, log_gap, above):
        # Cholesky of the shifted matrix against eigvalsh, with the smallest eigenvalue at least 1% of SPECTRUM_TOL
        # away from -SPECTRUM_TOL, on either side: rounding at the exact boundary is all that may tell them apart.
        rng = np.random.default_rng(seed)
        gap = linalg.SPECTRUM_TOL * 10.0 ** log_gap
        lam = -linalg.SPECTRUM_TOL + (gap if above else -gap) + np.concatenate([[0.0], rng.uniform(0.0, 10.0, n - 1)])
        u = random_unitary(n, rng)
        h = (u * lam) @ u.conj().T
        floor_admits = float(np.linalg.eigvalsh(h).min()) >= -linalg.SPECTRUM_TOL
        assert floor_admits is above
        assert linalg.is_psd(h) is floor_admits

    def test_is_identity(self):
        assert linalg.is_identity(np.eye(3) + 1e-11)
        assert not linalg.is_identity(np.eye(3) + 1e-9)
        assert not linalg.is_identity(np.diag([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("predicate", [linalg.is_identity, linalg.is_unitary, linalg.is_hermitian, linalg.is_psd])
    def test_nan_fails_every_predicate(self, predicate):
        assert not predicate(np.full((2, 2), np.nan))
        assert not predicate(np.array([[1.0, 0.0], [0.0, np.nan]]))

    def test_entries_near_the_largest_double(self):
        # a - a^dagger and a + a^dagger would overflow here; the predicates halve first.
        big = 1.7e308
        assert not linalg.is_hermitian(np.array([[0.0, big], [-big, 0.0]]))
        assert linalg.is_hermitian(np.array([[big, big], [big, -big]]))
        assert linalg.is_psd(np.diag([big, big]))
        assert not linalg.is_psd(np.diag([big, -big]))


class TestAdmit:
    def test_read_only_copy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        kept = linalg.admit(a, "m")
        assert kept.dtype == complex and np.array_equal(kept, a)
        assert not kept.flags.writeable and not np.shares_memory(a, kept)

    def test_real_dtype_drops_a_zero_imaginary_part(self):
        kept = linalg.admit(np.array([1.0 + 0.0j, -2.0]), "v", float)
        assert kept.dtype == float and np.array_equal(kept, [1.0, -2.0])

    @pytest.mark.parametrize("a, kwargs, message", [
        (np.array([1.0, 1j]), {"dtype": float}, "^v must have imaginary part exactly zero$"),
        (np.ones((2, 3)), {"square": True}, r"^v must be square, got shape \(2, 3\)$"),
        (np.ones(2), {"square": True}, r"^v must be square, got shape \(2,\)$"),
        (np.array([1.0, np.nan]), {}, "^v must be finite$"),
        (np.array([1.0, complex(0.0, np.inf)]), {}, "^v must be finite$"),
        (np.array([1.0, -np.inf]), {"dtype": float}, "^v must be finite$"),
    ])
    def test_rejections_name_the_input(self, a, kwargs, message):
        with pytest.raises(ValueError, match=message):
            linalg.admit(a, "v", **kwargs)


class TestAdmitFamily:
    @pytest.mark.parametrize("family", [
        lambda: (np.eye(2), np.diag([1.0, 1j])),
        lambda: [np.eye(2), [[1.0, 0.0], [0.0, 1j]]],
        lambda: np.array([np.eye(2), np.diag([1.0, 1j])]),
    ], ids=["tuple", "list", "stack"])
    def test_read_only_complex_stack_copied_from_the_members(self, family):
        members = family()
        kept = linalg.admit_family(members, "K")
        assert kept.shape == (2, 2, 2) and kept.dtype == complex and not kept.flags.writeable
        assert np.array_equal(kept, [np.eye(2), np.diag([1.0, 1j])])
        assert not any(np.shares_memory(m, kept) for m in members if isinstance(m, np.ndarray))

    @pytest.mark.parametrize("family, message", [
        ((), "^need at least one K$"),
        ((np.eye(2), np.ones((2, 3))), r"^K must be square, got shape \(2, 3\)$"),
        ((np.ones(2),), r"^K must be square, got shape \(2,\)$"),
        ((np.eye(2), np.eye(3)), "^Ks must share one dimension, got 2 and 3$"),
        ((np.eye(2), np.eye(2), np.eye(4)), "^Ks must share one dimension, got 2 and 4$"),
        ((np.eye(2), np.diag([1.0, np.nan])), "^K must be finite$"),
    ], ids=["empty", "non_square", "vector", "ragged", "ragged_third", "non_finite"])
    def test_rejections_name_the_family(self, family, message):
        with pytest.raises(ValueError, match=message):
            linalg.admit_family(family, "K")


@pytest.mark.parametrize("fn, gone", [(linalg.is_identity, "tol"), (linalg.is_unitary, "tol"), (linalg.is_psd, "tol")])
def test_fixed_bounds_are_not_parameters(fn, gone):
    # Each had one value in use; is_hermitian keeps tol, which takes two: INPUT_TOL and SPECTRUM_TOL.
    assert gone not in inspect.signature(fn).parameters


def test_every_tolerance_lives_in_the_linalg_table():
    # A small float literal outside linalg.py is a tolerance that escaped the table.
    root = pathlib.Path(linalg.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "linalg.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
                found.append(f"{path.relative_to(root)}:{node.lineno}: {node.value!r}")
    assert not found


def test_no_module_builds_a_kronecker_product():
    # Lifts act along one tensor axis and encode_operator fills its 2 x 2 blocks, so no module defines, imports,
    # calls or passes on a Kronecker product, the way a dense whole-system matrix would come back.
    root = pathlib.Path(linalg.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "kron" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                found.append(f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')}")
    assert not found


class TestSampling:
    def test_state_normalized_and_deterministic(self):
        a = random_state(9, seed=42)
        b = random_state(9, seed=42)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12

    def test_unitary_is_unitary_and_deterministic(self):
        u = random_unitary(7, seed=43)
        assert np.array_equal(u, random_unitary(7, seed=43))
        assert linalg.is_unitary(u)

    def test_hermitian_is_hermitian(self):
        h = random_hermitian(6, seed=44)
        assert linalg.is_hermitian(h)
        assert np.array_equal(h, random_hermitian(6, seed=44))

    def test_seeds_differ(self):
        assert not np.allclose(
            random_unitary(4, seed=1), random_unitary(4, seed=2)
        )
