import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import scalar_oracle as oracle
from helpers import hexagon_base, random_unit_quaternion
from stewart66.errors import NotUnit
from stewart66.geometry import ORTHOGONALITY_TOL, PlatformGeometry
from stewart66.rotation import (RENORM_TOL, Quaternion, _renormalize, canonicalize, columns,
                                from_matrix, to_matrix)

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


def test_renormalize_is_the_quaternion_rule_to_the_byte(rng):
    # the norm's squares added left to right, and a division only beyond
    # RENORM_TOL, as Quaternion does for one quaternion
    q = rng.normal(size=(4, 3, 400))
    q /= np.sqrt((q * q).sum(axis=0))
    q *= 1.0 + rng.choice([0.0, 1e-15, -3e-14, 2e-13, -1e-10, 1e-6], size=(3, 400))
    q[:, 0, ::4] = 0.0
    q[0, 0, ::4] = 1.0
    out = _renormalize(q.copy())
    for expected, got in zip(q.reshape(4, -1).T.tolist(), out.reshape(4, -1).T):
        q0, q1, q2, q3 = expected
        norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
        if abs(norm - 1.0) > RENORM_TOL:
            expected = [x / norm for x in expected]
        assert got.tobytes() == np.array(expected).tobytes()


# norms 1e-16 to 1e-7 off unit, either way: both sides of RENORM_TOL
norm_offsets = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-16, -7),
                         st.sampled_from([-1.0, 1.0]))


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4), norm_offsets)
@example([0.5, -0.5, 0.5, -0.5], [False] * 4, RENORM_TOL)
@example([0.3, -0.1, 0.9, 0.2], [False] * 4, -RENORM_TOL)
@example([-0.3, 0.1, 0.9, 0.2], [True, False, False, True], RENORM_TOL * (1.0 + 1e-3))
@example([0.0, 0.0, -1.0, 0.0], [False] * 4, -1e-16)
def test_quaternion_keeps_what_canonicalize_returns(components, zeroed, offset):
    # the kernel fills Quaternions with canonicalize output, skipping the
    # constructor: it must be what the constructor would keep
    c = np.where(zeroed, 0.0, components)
    assume(math.sqrt(c @ c) > 0.1)
    p = canonicalize(c / math.sqrt(c @ c) * (1.0 + offset))
    assert Quaternion(*p.tolist()).as_array().tobytes() == p.tobytes()


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


# Half turns about the coordinate axes and about three axes in their planes:
# Shepperd's q0 is exactly 0 for each, and other components are 0 or -0.0
HALF_TURN_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                  (1.0, -2.0, 0.0), (0.0, 1.0, -2.0), (-2.0, 0.0, 1.0)]


def top_rotations():
    """One A per Shepperd branch, three of them with a negative q0 so that
    the sign fold acts, one folded with an exactly zero component, the half
    turns about HALF_TURN_AXES, random A, and A 1e-10 off orthogonal, whose
    Shepperd quaternions are renormalized."""
    rng = np.random.default_rng(1212)
    mats = [to_matrix(Quaternion(*(q / np.linalg.norm(q)))) for q in np.array(
        [[0.9, 0.3, -0.2, 0.25], [-0.2, 0.9, 0.3, 0.1], [-0.1, 0.3, 0.9, -0.2],
         [-0.3, 0.1, -0.2, 0.9], [-0.2, 0.9, 0.3, 0.0]])]
    for axis in HALF_TURN_AXES:
        a = np.array(axis) / np.linalg.norm(axis)
        mats.append(2.0 * np.outer(a, a) - np.eye(3))
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
    turns = raw[5:5 + len(HALF_TURN_AXES)]
    assert all(q[0] == 0.0 and sum(x == 0.0 for x in q) >= 2 for q in turns)
    # two folds with q0 = 0, and one -0.0 component left where it is
    assert sum(next(x for x in q if x != 0.0) < 0.0 for q in turns) == 2
    assert any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in turns[5])
    assert all(abs(math.sqrt(sum(x * x for x in q)) - 1.0) > RENORM_TOL for q in raw[-100:])
    for m, q in zip(mats, raw):
        assert from_matrix(m).tobytes() == canonicalize(q).tobytes()


def test_plate_product_reads_the_canonical_top_quaternion():
    for a in top_rotations():
        assert np.max(np.abs(a.T @ a - np.eye(3))) <= ORTHOGONALITY_TOL
        plate = PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)._ra_to_plate
        assert plate[:, 0].tobytes() == canonicalize(oracle.shepperd(a)).tobytes()
