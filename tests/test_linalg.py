import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (CIRCLE_COEFFS, hexagon_base, random_circle_base,
                     random_generic_base)
from stewart66.errors import Inconsistent
from stewart66.geometry import build_q, conic_check
from stewart66.ik import Pose, d_from_lengths, leg_lengths, w_from_pose
from stewart66.linalg import lu_factor, null_vector, solve
from stewart66.rotation import Quaternion


def hexagon_q():
    return build_q(hexagon_base())


matrices = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=36, max_size=36,
).map(lambda v: np.array(v).reshape(6, 6))


def test_identity_has_rank_six_unit_singular_values():
    f = lu_factor(np.eye(6))
    assert f.rank == 6
    assert np.allclose(f.s, np.ones(6), rtol=0.0, atol=1e-15)


def test_hexagon_conic_matrix_has_rank_five():
    assert lu_factor(hexagon_q()).rank == 5


def test_duplicated_row_drops_rank():
    m = np.arange(36, dtype=float).reshape(6, 6) + np.eye(6)
    m[3] = m[1]
    assert lu_factor(m).rank <= 5


def test_zero_matrix_has_rank_zero():
    assert lu_factor(np.zeros((6, 6))).rank == 0


def test_rejects_non_finite_entries():
    m = np.eye(6)
    m[2, 2] = np.inf
    with pytest.raises(ValueError):
        lu_factor(m)


def test_factorization_is_shared_and_read_only():
    q = hexagon_q()
    f = lu_factor(q)
    assert lu_factor(q.copy()) is f
    for x in (f.scaled, f.scale, f.u, f.s, f.vt):
        with pytest.raises(ValueError):
            x[0] = 1.0


def test_kept_factorization_follows_the_values_not_the_array():
    q = build_q(random_generic_base(np.random.default_rng(7)))
    original = q.copy()
    f = lu_factor(q)
    q[0, 1] += 0.5
    assert lu_factor(original) is f
    assert np.array_equal(f.scaled, original * f.scale)
    g = lu_factor(q)
    assert g is not f
    assert np.array_equal(g.scaled, q * g.scale)


@pytest.mark.parametrize("bad", ["non_finite", "shape"])
def test_refused_matrix_is_never_kept(bad):
    f = lu_factor(hexagon_q())
    m = np.eye(6)
    if bad == "non_finite":
        m[2, 2] = np.nan
    else:
        m = m[:5]
    with pytest.raises(ValueError):
        lu_factor(m)
    assert lu_factor(hexagon_q()) is f


@given(matrices)
def test_reconstruction(m):
    f = lu_factor(m)
    target = m * f.scale
    err = np.max(np.abs(f.u @ np.diag(f.s) @ f.vt - target))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(target)))
    assert np.all(f.scale > 0.0)


@pytest.mark.parametrize("radius", [1e-3, 1e4])
def test_rank_verdict_ignores_base_scale(radius, rng):
    for _ in range(50):
        assert conic_check(radius * random_generic_base(rng)).rank == 6
        assert conic_check(radius * random_circle_base(rng)).rank == 5


def test_solve_identity_passthrough():
    rhs = np.array([1.0, 2, 3, 4, 5, 6])
    assert np.array_equal(solve(lu_factor(np.eye(6)), rhs), rhs)


def test_solve_matches_pose_oracle(perturbed_geometry):
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0]))
    d = d_from_lengths(perturbed_geometry, leg_lengths(perturbed_geometry, pose))
    w = solve(lu_factor(build_q(perturbed_geometry.base)), d)
    assert np.max(np.abs(w - w_from_pose(perturbed_geometry, pose))) <= 1e-9


def test_solve_uniform_diagonal():
    x = solve(lu_factor(2.0 * np.eye(6)), np.full(6, 2.0))
    assert np.array_equal(x, np.ones(6))


def test_solve_random_round_trips(rng):
    for _ in range(1000):
        m = rng.uniform(-1, 1, (6, 6)) + 3.0 * np.eye(6)
        x0 = rng.uniform(-1, 1, 6)
        rhs = m @ x0
        x = solve(lu_factor(m), rhs)
        assert np.max(np.abs(x - x0)) <= 1e-9
        assert np.max(np.abs(m @ x - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_circle_coefficients_annihilate_rows():
    # oracle for the null-vector tests: rows are (1, x, y, x^2, xy, y^2)
    # and x^2 + y^2 = 1 on the unit circle
    assert np.max(np.abs(hexagon_q() @ CIRCLE_COEFFS)) < 1e-15


def test_null_vector_matches_circle_coefficients():
    q = hexagon_q()
    n = null_vector(lu_factor(q))
    target = CIRCLE_COEFFS / np.linalg.norm(CIRCLE_COEFFS)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
    assert min(np.max(np.abs(n - target)), np.max(np.abs(n + target))) <= 1e-9
    assert np.max(np.abs(q @ n)) <= 1e-9 * np.max(np.abs(q))


def test_null_vector_of_singular_diagonal():
    n = null_vector(lu_factor(np.diag([1.0, 1, 1, 1, 1, 0])))
    assert np.allclose(np.abs(n), [0, 0, 0, 0, 0, 1])


def test_null_vector_on_ellipse_points():
    t = np.array([0.1, 0.9, 1.7, 2.8, 4.0, 5.3])
    q = build_q(np.column_stack([2.0 * np.cos(t), np.sin(t)]))
    f = lu_factor(q)
    assert f.rank == 5
    n = null_vector(f)
    assert np.max(np.abs(q @ n)) <= 1e-9 * np.max(np.abs(q))


def test_rank_deficient_zero_rhs():
    w = solve(lu_factor(hexagon_q()), np.zeros(6))
    assert np.array_equal(w, np.zeros(6))


def test_rank_deficient_kernel_rhs_collapses():
    q = hexagon_q()
    rhs = q @ np.array([1.0, 0, 0, -1, 0, -1])
    assert np.max(np.abs(rhs)) < 1e-15  # that vector is in the kernel
    w = solve(lu_factor(q), rhs, 1e-8)
    assert np.max(np.abs(w)) < 1e-12


def test_rank_deficient_particular_solution():
    q = hexagon_q()
    f = lu_factor(q)
    x0 = np.array([0.0, 1, 1, 0, 0, 0])
    rhs = q @ x0
    w = solve(f, rhs, 1e-8)
    assert np.max(np.abs(q @ w - rhs)) <= 1e-8
    # w may differ from x0 only along the kernel
    diff = w - x0
    n = null_vector(f)
    assert np.linalg.norm(diff - (diff @ n) * n) <= 1e-9


def test_rank_deficient_flags_inconsistent_rhs():
    q = hexagon_q()
    f = lu_factor(q)
    assert abs(f.u[0, 5]) > 1e-3  # a bump on row 1 leaves the column space
    rhs = q @ np.ones(6)
    rhs[0] += 0.1
    with pytest.raises(Inconsistent):
        solve(f, rhs)


def test_cross_product_orthogonality(rng):
    for _ in range(1000):
        u = rng.uniform(-1, 1, 3)
        v = rng.uniform(-1, 1, 3)
        c = np.cross(u, v)
        assert abs(c @ u) <= 1e-14
        assert abs(c @ v) <= 1e-14
