import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_oracle as oracle
from helpers import hexagon_base, random_unit_quaternion
from stewart66.errors import NotUnit
from stewart66.geometry import ORTHOGONALITY_TOL, PlatformGeometry
from stewart66.rotation import (RENORM_TOL, Quaternion, canonicalize, columns, from_matrix,
                                to_matrix)

ROOT_HALF = math.sqrt(0.5)

unit_quaternions = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
).filter(lambda c: math.hypot(*c) > 0.1).map(
    lambda c: Quaternion(*(x / math.hypot(*c) for x in c)))


def test_identity_quaternion_gives_identity_matrix():
    assert np.array_equal(to_matrix(Quaternion(1, 0, 0, 0)), np.eye(3))


def test_half_turn_about_z():
    assert np.array_equal(to_matrix(Quaternion(0, 0, 0, 1)), np.diag([-1.0, -1.0, 1.0]))


def test_quarter_turn_about_z():
    r = to_matrix(Quaternion(ROOT_HALF, 0, 0, ROOT_HALF))
    expected = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.max(np.abs(r - expected)) <= 1e-15


@given(unit_quaternions)
def test_matrices_are_proper_rotations(q):
    r = to_matrix(q)
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12
    assert abs(np.trace(r) - (4 * q.q0 ** 2 - 1)) <= 1e-12


@given(unit_quaternions)
def test_sign_flip_gives_identical_matrix(q):
    flipped = Quaternion(-q.q0, -q.q1, -q.q2, -q.q3)
    assert np.array_equal(to_matrix(q), to_matrix(flipped))


def test_construction_rejects_norm_far_from_one():
    with pytest.raises(NotUnit):
        Quaternion(0.9, 0, 0, 0)


def test_construction_normalizes_tiny_drift():
    q = Quaternion(1.0 + 1e-7, 0, 0, 0)
    assert q.q0 == 1.0


def test_to_matrix_checks_norm():
    q = Quaternion(1, 0, 0, 0)
    object.__setattr__(q, "q0", 0.5)
    with pytest.raises(NotUnit):
        to_matrix(q)


def test_components_are_stored_as_floats():
    # ints and float32 are read as their float64 values, so the rotation is
    # a float64 matrix, as for the float twin
    for q in ((1, 0, 0, 0), np.float32([0.6, 0.8, 0.0, 0.0]), np.array([0, 0, 3, 4]) / 5):
        quaternion, twin = Quaternion(*q), Quaternion(*map(float, q))
        assert all(type(getattr(quaternion, name)) is float for name in ("q0", "q1", "q2", "q3"))
        assert quaternion == twin
        assert to_matrix(quaternion).dtype == np.float64
        assert to_matrix(quaternion).tobytes() == to_matrix(twin).tobytes()


def test_canonicalize_flips_negative_q0():
    assert canonicalize([-1.0, 0, 0, 0]).tolist() == [1, 0, 0, 0]


def test_canonicalize_keeps_nonnegative_q0():
    q = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(canonicalize(q), q)


def test_canonicalize_double_cover():
    a = Quaternion(-0.5, 0.5, 0.5, 0.5)
    b = Quaternion(*canonicalize(a.as_array()))
    assert (b.q0, b.q1, b.q2, b.q3) == (0.5, -0.5, -0.5, -0.5)
    assert np.array_equal(to_matrix(a), to_matrix(b))


def test_canonicalize_breaks_zero_q0_tie():
    # components first: one quaternion per column
    q = canonicalize(np.array([[0.0, -1, 0, 0], [0.0, 0, 0, -1]]).T)
    assert q.T.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]
    assert str(q[0, 0]) == "0.0"  # no -0.0 left behind


def test_array_forms_match_one_quaternion_at_a_time():
    # identity, then half turns about x, y and z: one per Shepperd branch
    qs = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0],
                   [0.3, -0.1, 0.9, 0.2], [0.1, 0.7, -0.2, 0.6]])
    qs = qs / np.linalg.norm(qs, axis=1, keepdims=True)
    # the kernel's form: columns 0 and 1, components first
    cols = columns(qs.T, 2)
    assert cols.shape == (2, 3, 6)
    mats = [to_matrix(Quaternion(*q)) for q in qs]
    for c, m in zip(cols.transpose(2, 1, 0), mats):
        assert c.tobytes() == m[:, :2].tobytes()
    for q, m in zip(canonicalize(qs.T).T, mats):
        assert np.max(np.abs(from_matrix(m) - q)) <= 1e-15


def expanded_matrix(q0, q1, q2, q3):
    """R written out entry by entry, in the order its products and sums are formed."""
    t0, t1, t2 = 2 * q0, 2 * q1, 2 * q2
    d = t0 * q0 - 1
    return [[d + t1 * q1, t1 * q2 - t0 * q3, t0 * q2 + t1 * q3],
            [t1 * q2 + t0 * q3, d + t2 * q2, t2 * q3 - t0 * q1],
            [t1 * q3 - t0 * q2, t0 * q1 + t2 * q3, d + 2 * q3 * q3]]


def test_to_matrix_is_the_expanded_formula_to_the_byte():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3000, 4))
    zeroed = rng.random(len(q)) < 1 / 3
    q[zeroed] *= rng.random((int(zeroed.sum()), 4)) < 0.5
    q[~q.any(axis=1), 0] = 1.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    for row in q.tolist():
        m = to_matrix(Quaternion(*row))
        assert m.flags.c_contiguous
        assert m.tobytes() == np.array(expanded_matrix(*row)).tobytes()
    # arrays of quaternions, both counts of columns, a batch of two axes
    for count in (2, 3):
        cols = columns(q.T.reshape(4, 3, -1), count)
        assert cols.shape == (count, 3, 3, 1000)
        expected = np.array(expanded_matrix(*q.T)).transpose(1, 0, 2)[:count]
        assert cols.tobytes() == expected.reshape(count, 3, 3, 1000).tobytes()


@pytest.mark.parametrize("q", [(1.0, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0), (0, 0, 0, 1.0)],
                         ids=["identity", "half_turn_x", "half_turn_y", "half_turn_z"])
def test_from_matrix_round_trips_each_shepperd_branch(q):
    # the largest of (trace, m00, m11, m22) picks the branch: one each
    m = to_matrix(Quaternion(*q))
    assert int(np.argmax([np.trace(m), *np.diag(m)])) == np.flatnonzero(q)[0]
    back = from_matrix(m)
    assert back.shape == (4,)
    assert back.tolist() == list(q)


@given(unit_quaternions)
def test_from_matrix_round_trip(q):
    qc = Quaternion(*canonicalize(q.as_array()))
    back = Quaternion(*from_matrix(to_matrix(qc)))
    # q0 within noise of zero can legitimately flip the canonical sign
    gap = min(np.max(np.abs(back.as_array() - qc.as_array())),
              np.max(np.abs(back.as_array() + qc.as_array())))
    assert gap <= 1e-12
    assert np.max(np.abs(to_matrix(back) - to_matrix(qc))) <= 1e-12


def top_rotations():
    """One A per Shepperd branch, three of them with a negative q0 so that
    the sign fold acts, one folded with an exactly zero component, random A,
    and A 1e-10 off orthogonal, whose Shepperd quaternions are renormalized."""
    rng = np.random.default_rng(1212)
    mats = [to_matrix(Quaternion(*(q / np.linalg.norm(q)))) for q in np.array(
        [[0.9, 0.3, -0.2, 0.25], [-0.2, 0.9, 0.3, 0.1], [-0.1, 0.3, 0.9, -0.2],
         [-0.3, 0.1, -0.2, 0.9], [-0.2, 0.9, 0.3, 0.0]])]
    mats += [to_matrix(random_unit_quaternion(rng)) for _ in range(200)]
    off = [to_matrix(random_unit_quaternion(rng)) * rng.uniform(1.0 + 1e-10, 1.0 + 3e-10)
           + 1e-11 * rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(100)]
    return mats + off


def test_from_matrix_folds_bit_equal_to_canonicalize():
    mats = top_rotations()
    branches = {int(np.argmax([np.trace(m), *np.diag(m)])) for m in mats[:4]}
    assert branches == {0, 1, 2, 3}
    raw = [oracle.shepperd(m) for m in mats]
    assert sum(q[0] < 0.0 for q in raw[:4]) == 3
    assert raw[4][0] < 0.0 and raw[4][3] == 0.0
    assert all(abs(math.sqrt(sum(x * x for x in q)) - 1.0) > RENORM_TOL for q in raw[-100:])
    for m, q in zip(mats, raw):
        assert from_matrix(m).tobytes() == canonicalize(q).tobytes()


def test_plate_product_reads_the_canonical_top_quaternion():
    for a in top_rotations():
        assert np.max(np.abs(a.T @ a - np.eye(3))) <= ORTHOGONALITY_TOL
        plate = PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)._ra_to_plate
        assert plate[:, 0].tobytes() == canonicalize(oracle.shepperd(a)).tobytes()
