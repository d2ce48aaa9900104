import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (CIRCLE_COEFFS, HEX_ANGLES, hexagon_base,
                     perturbed_hexagon_base, random_rotation)
from stewart66.errors import DuplicateVertex, ValidationError
from stewart66.geometry import (MAX_COORDINATE, MIN_COORDINATE, MIN_VERTEX_SEPARATION,
                                PlatformGeometry, build_q, conic_check, make_circle_base)
from stewart66.linalg import RANK_EPS

# radii at which a circle base once broke the conic check: det Q overflowed
# (1e60), the rank test's column norms did and it read rank 3 (1e150), or
# lu_factor raised a bare ValueError (1e200); at the small end dot
# overflowed (1e-80), or the rank read 3 (1e-100) or 1 (1e-200)
OUT_OF_BOUNDS_RADII = [1e60, 1e150, 1e200, 1e-80, 1e-100, 1e-200]


def far_circle(radius):
    t = 1.1 * np.arange(6)
    return radius * np.column_stack([np.cos(t), np.sin(t)])


def test_hexagon_angles_give_regular_hexagon():
    base = make_circle_base(HEX_ANGLES)
    assert np.array_equal(base[0], [1.0, 0.0])
    assert np.allclose((base ** 2).sum(axis=1), 1.0)


def test_arbitrary_angles_land_on_unit_circle():
    base = make_circle_base([0.0, 0.4, 1.1, 2.0, 3.5, 5.0])
    assert base.shape == (6, 2)
    assert np.allclose((base ** 2).sum(axis=1), 1.0)


def test_duplicate_angles_rejected():
    with pytest.raises(DuplicateVertex):
        make_circle_base([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])


def test_angles_coinciding_mod_two_pi_rejected():
    with pytest.raises(DuplicateVertex):
        make_circle_base([0.0, 2.0 * np.pi, 1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("start", [2.0, 2.0 * np.pi - 0.5e-9], ids=["mid_circle", "across_two_pi"])
@pytest.mark.parametrize("ratio, duplicate", [(0.99, True), (1.01, False)],
                         ids=["just_inside", "just_outside"])
def test_circle_base_and_geometry_agree_on_vertex_separation(start, ratio, duplicate):
    angles = np.array([start, start + ratio * MIN_VERTEX_SEPARATION, 0.5, 1.0, 3.0, 4.0])
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    for build in (make_circle_base, lambda a: PlatformGeometry(base=points, mu=0.5)):
        if duplicate:
            with pytest.raises(DuplicateVertex, match="base vertices 0 and 1 coincide"):
                build(angles)
        else:
            build(angles)


@pytest.mark.parametrize("radius", [2.0 ** -120, 1e-12, 1e-9, 1.0, 1e4])
def test_vertex_separation_scales_with_the_base(radius):
    # the rule is MIN_VERTEX_SEPARATION times the largest vertex norm
    base = far_circle(radius)
    PlatformGeometry(base=base, mu=0.5)
    assert conic_check(base).rank == 5
    for ratio, duplicate in ((0.5, True), (2.0, False)):
        close = base.copy()
        close[1] = close[0] + [0.0, ratio * MIN_VERTEX_SEPARATION * radius]
        if duplicate:
            with pytest.raises(DuplicateVertex, match="base vertices 0 and 1 coincide"):
                PlatformGeometry(base=close, mu=0.5)
        else:
            PlatformGeometry(base=close, mu=0.5)


@pytest.mark.parametrize("radius", OUT_OF_BOUNDS_RADII)
def test_bases_outside_the_coordinate_bounds_are_refused(radius):
    with pytest.raises(ValidationError, match="base coordinates must be at most"):
        PlatformGeometry(base=far_circle(radius), mu=0.5)
    with pytest.raises(ValidationError, match="base coordinates must be at most"):
        conic_check(far_circle(radius))


def test_a_base_at_max_coordinate_still_answers():
    base = far_circle(MAX_COORDINATE)
    assert np.abs(base).max() <= MAX_COORDINATE
    report = conic_check(base)
    assert report.rank == 5 and report.margin <= RANK_EPS
    assert conic_check(base * [1.0, 0.5]).rank == 5  # an ellipse
    PlatformGeometry(base=base, mu=0.5)


def test_a_base_at_min_coordinate_still_answers():
    base = far_circle(1.0)
    base *= MIN_COORDINATE / np.abs(base).max()
    assert np.abs(base).max() == MIN_COORDINATE
    assert conic_check(base).rank == 5
    generic = perturbed_hexagon_base()
    generic *= MIN_COORDINATE / np.abs(generic).max()
    report = conic_check(generic)
    # the column-scaled test reads the same margin at this reach as at 1
    margin = conic_check(perturbed_hexagon_base()).margin
    assert report.rank == 6 and report.margin == pytest.approx(margin, rel=1e-12)


def test_build_q_first_vertex_row():
    base = hexagon_base()
    assert np.array_equal(build_q(base)[0], [1.0, 1.0, 0.0, 1.0, 0.0, 0.0])


def test_build_q_row_values():
    b = np.array([[0.5, math.sqrt(3) / 2]] + [[i, i * i] for i in range(1, 6)], float)
    row = build_q(b)[0]
    expected = [1.0, 0.5, math.sqrt(3) / 2, 0.25, math.sqrt(3) / 4, 0.75]
    assert np.max(np.abs(row - expected)) <= 1e-15


@pytest.mark.parametrize("base", [
    np.zeros((6, 3)),                    # once read by its first two columns
    np.zeros((5, 2)),
    np.full((6, 2), np.nan),
    np.where(np.eye(6, 2) > 0, np.inf, hexagon_base()),
    [["0", "1"]] * 6,
    [[0.0, 1.0]] * 5 + [[0.0]],
    [[True, 0.0]] + hexagon_base()[1:].tolist(),  # np.asarray reads it as float
    np.ones((6, 2), dtype=bool),
    True,
    "base",
    None,
])
def test_conic_check_refuses_anything_but_six_finite_planar_points(base):
    with pytest.raises(ValidationError):
        conic_check(base)


def test_hexagon_determinant_vanishes():
    report = conic_check(hexagon_base())
    assert report.margin <= RANK_EPS
    assert report.rank == 5
    assert report.on_conic
    target = CIRCLE_COEFFS / np.linalg.norm(CIRCLE_COEFFS)
    gap = min(np.max(np.abs(report.conic - target)), np.max(np.abs(report.conic + target)))
    assert gap <= 1e-9


def test_perturbed_hexagon_is_off_conic():
    report = conic_check(perturbed_hexagon_base())
    assert report.rank == 6
    assert not report.on_conic
    assert report.conic is None
    assert 0.027 < report.margin < 0.029


# Power-of-two scales scale Q's columns exactly, so the column-scaled SVD
# sees the same matrix.  1.2 * 2^126, the perturbed hexagon's reach at the
# top scale, is past MAX_COORDINATE, so that base stops at 2^125.
@pytest.mark.parametrize("base, top", [(perturbed_hexagon_base(), 125), (hexagon_base(), 126)],
                         ids=["perturbed", "hexagon"])
def test_the_margin_does_not_depend_on_scale(base, top):
    assert len({conic_check(base * 2.0 ** k).margin for k in (-126, -20, 0, 20, top)}) == 1


def test_the_margin_is_scale_free_off_powers_of_two():
    margin = conic_check(perturbed_hexagon_base()).margin
    for scale in (1e-3, 1e3):
        scaled = conic_check(scale * perturbed_hexagon_base()).margin
        assert scaled == pytest.approx(margin, rel=1e-12)
    assert conic_check(1000.0 * hexagon_base()).rank == 5


@pytest.mark.parametrize("offset", [1e-3, 1e-5, 1e-7])
def test_the_margin_measures_the_distance_from_the_conic(offset):
    # the hexagon's vertex 0 pushed out radially by offset times the radius
    base = hexagon_base()
    base[0] *= 1.0 + offset
    assert 0.16 <= conic_check(base).margin / offset <= 0.17


@pytest.mark.parametrize("offset, margin, rank", [(3e-9, 4.95e-10, 6), (3e-10, 4.95e-11, 5)])
def test_rank_threshold_is_1_65e_10(offset, margin, rank):
    # the margin is 0.165 times the push-out; RANK_EPS ten times larger or
    # smaller flips one of these (a push of 1e-9 would sit at the threshold)
    base = hexagon_base()
    base[0] *= 1.0 + offset
    report = conic_check(base)
    assert report.margin == pytest.approx(margin, rel=0.01)
    assert report.rank == rank


@given(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6), st.integers(0, 5),
       st.floats(-14.0, -2.0), st.integers(-60, 60))
def test_on_conic_is_the_margin_test(angles, vertex, log_offset, log2_scale):
    # a circle base with one vertex pushed out by 10^log_offset, at any scale
    base = np.column_stack([np.cos(angles), np.sin(angles)])
    base[vertex] *= 1.0 + 10.0 ** log_offset
    report = conic_check(2.0 ** log2_scale * base)
    # at the threshold itself the two tests may round apart
    assume(abs(report.margin / RANK_EPS - 1.0) > 1e-9)
    assert report.on_conic == (report.margin <= RANK_EPS)


def test_line_points_are_degenerate_conic():
    base = np.array([[t, t] for t in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)])
    # (y - x)^2 = 0 kills every row
    coeffs = np.array([0.0, 0, 0, 1, -2, 1])
    assert np.max(np.abs(build_q(base) @ coeffs)) < 1e-15
    assert conic_check(base).rank <= 5


@pytest.mark.parametrize("kind", ["circle", "ellipse", "parabola", "hyperbola"])
def test_points_on_any_conic_drop_rank(kind, rng):
    for _ in range(25):
        t = rng.uniform(0.0, 2.0 * np.pi, 6)
        if kind == "circle":
            c = rng.uniform(-1, 1, 2)
            r = rng.uniform(0.5, 2.0)
            pts = c + r * np.column_stack([np.cos(t), np.sin(t)])
        elif kind == "ellipse":
            a, b = rng.uniform(0.5, 2.0, 2)
            phi = rng.uniform(0, np.pi)
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) @ rot.T + rng.uniform(-1, 1, 2)
        elif kind == "parabola":
            x = np.linspace(-1, 1, 6) + rng.uniform(-0.05, 0.05, 6)
            a2, b2, c2 = rng.uniform(-1, 1, 3)
            pts = np.column_stack([x, a2 * x * x + b2 * x + c2])
        else:
            x = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]) + rng.uniform(-0.1, 0.1, 6)
            k = rng.uniform(0.5, 2.0)
            pts = np.column_stack([x, k / x])
        assert conic_check(pts).rank <= 5


def test_radial_noise_on_one_vertex_breaks_the_conic(rng):
    for _ in range(5):
        base = hexagon_base()
        i = rng.integers(0, 6)
        base[i] *= 1.0 + 0.1 * rng.choice([-1.0, 1.0])
        assert conic_check(base).rank == 6


@given(st.permutations(list(range(6))))
def test_build_q_is_permutation_equivariant(perm):
    base = make_circle_base(np.array([0.0, 0.4, 1.1, 2.0, 3.5, 5.0]))
    assert np.array_equal(build_q(base[perm]), build_q(base)[perm])


def test_geometry_validates_mu():
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValidationError):
            PlatformGeometry(base=hexagon_base(), mu=bad)


@pytest.mark.parametrize("mu, top", [
    ("0.5", None),                      # once read by float()
    (None, None),
    ([0.5], None),
    ("abc", None),
    (True, None),
    (0.5, np.eye(3).astype(str)),       # once read by float()
    (0.5, np.eye(3, dtype=bool)),       # once read as the identity
    (0.5, [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
    (0.5, "eye"),
], ids=["mu_numeric_string", "mu_none", "mu_list", "mu_string", "mu_bool", "top_strings",
        "top_bools", "top_ragged", "top_string"])
def test_geometry_refuses_non_numeric_mu_or_top_transform(mu, top):
    with pytest.raises(ValidationError):
        PlatformGeometry(base=hexagon_base(), mu=mu, top_transform=top)


def test_geometry_accepts_rotation_top_transform(rng):
    a = random_rotation(rng)
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)
    assert np.array_equal(geom.top_transform, a)


def test_geometry_rejects_non_orthogonal_transform():
    a = np.eye(3)
    a[0, 1] = 1e-3
    with pytest.raises(ValidationError, match="top transform is not orthogonal"):
        PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)


@pytest.mark.parametrize("entry, accepted", [(4e-10, True), (3e-9, False)])
def test_orthogonality_tolerance_is_one_part_in_1e9(entry, accepted):
    # A^T A - I is entry off the diagonal: ORTHOGONALITY_TOL ten times
    # looser or tighter flips one of these
    a = np.eye(3)
    a[0, 1] = entry
    if accepted:
        PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)
    else:
        with pytest.raises(ValidationError, match="top transform is not orthogonal"):
            PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)


def test_geometry_rejects_reflection():
    with pytest.raises(ValidationError, match=r"must be a proper rotation \(det \+1\)"):
        PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=np.diag([1.0, 1.0, -1.0]))


def test_top_transform_checks_match_the_matrix_formulas(rng):
    # rotations off by N(0, 1) * 10^U(-12, -7), a third with one column
    # negated, against A^T A - I and det A as numpy computes them
    for k in range(2000):
        a = random_rotation(rng) + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-12.0, -7.0)
        if k % 3 == 0:
            a[:, rng.integers(3)] *= -1.0
        gap = np.max(np.abs(a.T @ a - np.eye(3)))
        if abs(gap / 1e-9 - 1.0) <= 1e-6:
            continue  # the two sums may round apart at the bound
        expected = gap <= 1e-9 and np.linalg.det(a) > 0.0
        try:
            PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)
        except ValidationError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected, (k, gap)


@pytest.mark.parametrize("offset, duplicate", [(2e-9, False), (5e-10, True)])
def test_vertex_separation_is_one_part_in_1e9(offset, duplicate):
    # vertex 1 moved to vertex 0 plus (0, offset) on the unit hexagon:
    # MIN_VERTEX_SEPARATION ten times larger or smaller flips one of these
    base = hexagon_base()
    base[1] = base[0] + [0.0, offset]
    if duplicate:
        with pytest.raises(DuplicateVertex, match="base vertices 0 and 1 coincide"):
            PlatformGeometry(base=base, mu=0.5)
    else:
        PlatformGeometry(base=base, mu=0.5)


def test_geometry_rejects_duplicate_vertices():
    base = hexagon_base()
    base[3] = base[1]
    with pytest.raises(DuplicateVertex):
        PlatformGeometry(base=base, mu=0.5)


def test_geometry_defaults_to_identity_transform():
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    assert np.array_equal(geom.top_transform, np.eye(3))
