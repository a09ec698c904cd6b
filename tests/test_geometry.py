"""Domain membership and depth certificates."""

import math
import warnings

import numpy as np
import pytest

import stablelab as sl
from stablelab import geometry


def test_ball_membership_open():
    ball = sl.Ball((0.0, 0.0), 1.0)
    assert ball.contains_point([1e-9, 0.0])
    assert not ball.contains_point([1.0, 0.0])  # boundary excluded, set open
    assert not ball.contains_point([0.0, 1.0000001])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        sl.Ball((0.0, 0.0), 1.0).contains(np.zeros((4, 3)))


def test_shrinking_ball_centers_inside():
    dom = sl.shrinking_ball_domain(2, 30)
    assert dom.contains_point([25.0, 0.0])
    assert dom.contains_point([1.0, 0.0])
    assert not dom.contains_point([40.0, 0.0])


def test_shrinking_radius_formula():
    # direct evaluation of (log log(n+3))^(-1/2)
    assert sl.shrinking_radius(1) == pytest.approx(math.log(math.log(4.0)) ** -0.5, rel=1e-14)
    r = sl.shrinking_radius(np.arange(1, 200))
    assert np.all(np.diff(r) < 0.0)
    assert r[-1] < r[0]


def test_shrinking_domain_1d_intervals():
    # d = 1 gets the lattice union like every other d: the balls B(n, r_n)
    # are the intervals (n - r_n, n + r_n), and the lattice depth is their
    # union's depth, max over n of min(x - a_n, b_n - x)
    n_max = 60
    dom = sl.shrinking_ball_domain(1, n_max)
    assert isinstance(dom, sl.UnionOfBalls)
    ns = np.arange(1, n_max + 1)
    r = sl.shrinking_radius(ns)
    assert np.array_equal(dom.centers[:, 0], ns) and np.array_equal(dom.radii, r)
    a, b = ns - r, ns + r
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, n_max + 2.0, 4000)
    exact = np.minimum(x[:, None] - a, b - x[:, None]).max(axis=1)
    fast = dom.depth(x[:, None])
    assert (exact > 0.0).any() and (exact < 0.0).any()
    assert np.abs(fast - exact).max() <= 1e-13
    assert np.array_equal(np.sign(fast), np.sign(exact))
    # far from the lattice only the sign is kept
    far = np.concatenate([rng.uniform(-50.0, -1.0, 500), rng.uniform(n_max + 2.0, 2 * n_max, 500)])
    assert np.all(dom.depth(far[:, None]) < 0.0)


def test_lattice_union_matches_bruteforce():
    # the rounding fast path must agree with the naive max over all balls:
    # exact clearance inside (the bridge correction consumes it), matching
    # sign outside (only membership matters there)
    dom = sl.shrinking_ball_domain(2, 25)
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-3, 30, 4000), rng.uniform(-3, 3, 4000)])
    brute = (
        dom.radii[None, :]
        - np.sqrt(((pts[:, None, :] - dom.centers[None, :, :]) ** 2).sum(axis=-1))
    ).max(axis=1)
    fast = dom.depth(pts)
    inside = brute > 0.0
    assert inside.any() and (~inside).any()
    assert np.allclose(fast[inside], brute[inside], atol=1e-12)
    assert np.all(fast[~inside] <= 0.0)
    assert np.array_equal(dom.contains(pts), inside)


def test_lattice_depth_exact_off_lattice_and_on_ties():
    # the padded-gather fast path against the max over every ball, to the
    # bit where positive: far off both ends of the lattice (where round(x_1)
    # is clipped) and on half-integers, where rint ties to even
    n_max = 25
    dom = sl.shrinking_ball_domain(2, n_max)
    rng = np.random.default_rng(7)
    x1 = np.concatenate([
        rng.uniform(-3.0, n_max + 3.0, 3000),
        np.arange(-4, n_max + 4) + 0.5,
        np.full(50, -1e3),
        np.full(50, n_max + 1e3),
        rng.uniform(-1e3 - 2, -1e3 + 2, 100),
        rng.uniform(n_max + 1e3 - 2, n_max + 1e3 + 2, 100),
    ])
    pts = np.column_stack([x1, rng.uniform(-2.0, 2.0, x1.size)])
    brute = (
        dom.radii[None, :]
        - np.sqrt(((pts[:, None, :] - dom.centers[None, :, :]) ** 2).sum(axis=-1))
    ).max(axis=1)
    fast = dom.depth(pts)
    inside = brute > 0.0
    assert inside.any() and (~inside).any()
    assert np.array_equal(fast[inside], brute[inside])
    assert np.all(fast[~inside] <= 0.0)
    assert np.all(fast[np.abs(x1) > 900.0] == -np.inf)


_B = geometry._BLOCK


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7])
def test_lattice_depth_blocks_match_bruteforce(d, rows):
    # the blocked broadcast pass against the max over every ball, to the bit
    # where positive, on either side of each block edge; the brute force
    # sums (x_1 - c_1)^2 + (x_2^2 + ... + x_d^2) in the order the depth does
    n_max = 40
    dom = sl.shrinking_ball_domain(d, n_max)
    rng = np.random.default_rng(rows + 10 * d)
    pts = np.column_stack([rng.uniform(-3.0, n_max + 3.0, rows),
                           rng.uniform(-0.8, 0.8, (rows, d - 1))])
    pts[::5, 0] = rng.choice([-1e6, -1e3, n_max + 1e3, 1e150], size=pts[::5].shape[0])
    rest2 = sum(pts[:, j, None] ** 2 for j in range(1, d))
    dx = pts[:, 0, None] - dom.centers[None, :, 0]
    brute = (dom.radii[None, :] - np.sqrt(dx * dx + rest2)).max(axis=1, initial=-np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = dom.depth(pts)
    assert fast.shape == (rows,)
    inside = brute > 0.0
    assert np.array_equal(fast[inside], brute[inside])
    assert np.all(fast[~inside] <= 0.0)
    assert np.all(fast[np.abs(pts[:, 0]) > 900.0] == -np.inf)  # far off the lattice


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm2_is_the_einsum_rule(d):
    # bitwise the einsum it replaced for d <= 2.  For d = 3 einsum may sum
    # the columns in another order (numpy 2.4: (q_0^2 + q_2^2) + q_1^2), and
    # two orders, each rounded twice, may differ by two ulps of the result
    rng = np.random.default_rng(d)
    q = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-3, 4, (5000, 1))
    ref = np.einsum("ij,ij->i", q, q)
    got = geometry._norm2(q)
    if d <= 2:
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))
    center = rng.uniform(-2.0, 2.0, d)
    center[0] = 0.0  # a zero coordinate is skipped, not subtracted
    shifted = q - center
    assert np.array_equal(geometry._norm2(q, tuple(center)), geometry._norm2(shifted))


@pytest.mark.parametrize("center", [(0.0,), (0.3, -1.2), (0.0, 0.0), (0.5, -0.25, 2.0)])
def test_ball_depth_matches_explicit_formula(center):
    d = len(center)
    ball = sl.Ball(center, 1.5)
    rng = np.random.default_rng(3)
    pts = np.asarray(center) + rng.uniform(-2.0, 2.0, size=(5000, d))
    q = pts - np.asarray(center)
    r2 = q[:, 0] ** 2
    for i in range(1, d):
        r2 = r2 + q[:, i] ** 2
    explicit = 1.5 - np.sqrt(r2)
    if d <= 2:
        assert np.array_equal(ball.depth(pts), explicit)
        assert np.array_equal(ball.contains(pts), r2 < 1.5**2)
    else:
        assert np.allclose(ball.depth(pts), explicit, rtol=0.0, atol=1e-14)
        assert np.array_equal(ball.contains(pts), explicit > 0.0)


def test_openness_proxy_depth_positive():
    shapes = [
        sl.Ball((0.0,), 2.0),
        sl.Interval(-1.0, 3.0),
        sl.Box((0.0, 0.0), (1.0, 2.0)),
        sl.shrinking_ball_domain(2, 10),
    ]
    rng = np.random.default_rng(11)
    for dom in shapes:
        pts = rng.uniform(-4, 12, size=(2000, dom.dim))
        inside = dom.contains(pts)
        if inside.any():
            assert np.all(dom.depth(pts)[inside] > 0.0)


def _near_spheres(centers, radii, rng, n=2000):
    """Points within four ulps of the spheres |x - c| = r, in random directions."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    k = rng.integers(radii.size, size=n)
    u = rng.standard_normal((n, centers.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    scale = 1.0 + rng.integers(-4, 5, size=n) * np.finfo(float).eps
    return centers[k] + (radii[k] * scale)[:, None] * u


def _near_ends(ends):
    """Points within four ulps of each end, as rows of a one-dimensional set."""
    ends = np.asarray(ends, dtype=float).ravel()
    return (ends[:, None] + np.spacing(ends)[:, None] * np.arange(-4, 5)).reshape(-1, 1)


def _near_faces(lo, hi, rng, n=2000):
    """Points of the box's closure with one coordinate within four ulps of a face."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    p = rng.uniform(lo, hi, size=(n, lo.size))
    axis = rng.integers(lo.size, size=n)
    face = np.where(rng.random(n) < 0.5, lo[axis], hi[axis])
    p[np.arange(n), axis] = face + rng.integers(-4, 5, size=n) * np.spacing(face)
    return p


_SPHERE_POINT = np.array([[-0.09626681429324233, -0.027068440402623795]])
_BALLS = sl.shrinking_ball_domain(2, 20)
_LINE = sl.shrinking_ball_domain(1, 20)
_SEGMENTS = sl.disjoint_shrinking_intervals(16)


@pytest.mark.parametrize("dom, near", [
    (sl.Ball((0.0, 0.0), 0.1),
     lambda rng: np.vstack([_SPHERE_POINT, _near_spheres((0.0, 0.0), 0.1, rng)])),
    (sl.Ball((0.3, -1.2), 1.5), lambda rng: _near_spheres((0.3, -1.2), 1.5, rng)),
    (sl.Ball((0.5, -0.25, 2.0), 0.7), lambda rng: _near_spheres((0.5, -0.25, 2.0), 0.7, rng)),
    (sl.Interval(-1.0, 3.0), lambda rng: _near_ends([-1.0, 3.0])),
    (sl.Box((0.0, -1.0), (1.0, 2.0)), lambda rng: _near_faces((0.0, -1.0), (1.0, 2.0), rng)),
    (_SEGMENTS, lambda rng: _near_ends(_SEGMENTS.segments)),
    (_BALLS, lambda rng: _near_spheres(_BALLS.centers, _BALLS.radii, rng)),
    (_LINE, lambda rng: _near_ends([_LINE.centers[:, 0] - _LINE.radii,
                                    _LINE.centers[:, 0] + _LINE.radii])),
], ids=["ball-centred", "ball-off-centre", "ball-3d", "interval", "box", "union-of-intervals",
        "union-of-balls", "union-of-balls-1d"])
def test_contains_is_depth_positive(dom, near):
    # one membership rule for every shape, to the last ulp of the boundary:
    # the engine reads exits from depth, so contains must agree with it
    rng = np.random.default_rng(19)
    pts = np.vstack([rng.uniform(-3.0, 25.0, size=(2000, dom.dim)), near(rng)])
    depth = dom.depth(pts)
    assert (depth > 0.0).any() and (depth <= 0.0).any()
    assert np.array_equal(dom.contains(pts), depth > 0.0)


@pytest.mark.parametrize("centers", [
    [[0.0, 0.0], [2.0, 0.0]],  # not consecutive
    [[0.5], [1.5]],  # not integer
    [[1.0, 0.1], [2.0, 0.1]],  # off the first axis
    [[2.0], [1.0]],  # decreasing
])
def test_union_of_balls_off_the_lattice_raises(centers):
    with pytest.raises(ValueError, match="consecutive integer points"):
        sl.UnionOfBalls(np.asarray(centers), np.full(len(centers), 0.6))


def test_disjoint_shrinking_intervals():
    dom = sl.disjoint_shrinking_intervals(64)
    segs = dom.segments
    assert np.all(segs[1:, 0] > segs[:-1, 1])  # strictly disjoint
    half = (segs[:, 1] - segs[:, 0]) / 2.0
    assert np.allclose(half, 0.5 * np.arange(1, 65) ** -0.42)


@pytest.mark.parametrize("build, match", [
    (lambda: sl.Ball((0.0, 0.0), math.nan), r"radius: need a finite number in \(0.0, inf\)"),
    (lambda: sl.Ball((math.nan, 0.0), 1.0), "finite centre"),
    (lambda: sl.Ball((0.0, math.inf), 1.0), "finite centre"),
    (lambda: sl.Box((math.nan,), (1.0,)), "lo < hi"),
    (lambda: sl.UnionOfIntervals([[math.nan, 1.0]]), "a < b"),
    (lambda: sl.UnionOfBalls(np.array([[0.0], [1.0]]), np.array([math.nan, 0.5])),
     "radii must be positive"),
], ids=["ball_radius", "ball_centre_nan", "ball_centre_inf", "box", "union_of_intervals",
        "union_of_balls"])
def test_nan_parameters_raise(build, match):
    # NaN fails every comparison, so each range check is stated as the
    # condition that must hold; a NaN shape would read mean exit time 0
    with pytest.raises(ValueError, match=match):
        build()


def test_shape_validation_errors():
    with pytest.raises(ValueError):
        sl.Ball((0.0,), -1.0)
    with pytest.raises(ValueError):
        sl.Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        sl.UnionOfIntervals([[0.0, -1.0]])
