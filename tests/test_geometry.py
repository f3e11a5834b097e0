"""Boundary curves, quadrature nodes, and interior grids."""

import dataclasses

import numpy as np
import pytest

from plasmonres.geometry import (
    MAX_NODES,
    MAX_SPHERE_DEGREE,
    Sphere,
    make_curve,
    quadrature_nodes,
    interior_points,
)

# adaptive arclength quadrature of the 2:1 ellipse, frozen independently
ELLIPSE_21_PERIMETER = 9.688448220547676


def test_circle_perimeter_and_curvature():
    nodes = quadrature_nodes(make_curve("circle", radius=2.0), 64)
    assert abs(nodes.perimeter - 4.0 * np.pi) < 1e-12
    assert np.allclose(nodes.curvatures, 0.5, atol=1e-12)
    assert np.allclose(nodes.jacobians, 2.0, atol=1e-12)


def test_ellipse_perimeter_oracle():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 256)
    assert abs(nodes.perimeter - ELLIPSE_21_PERIMETER) < 1e-10


def test_ellipse_curvature_at_vertex():
    # kappa = a/b^2 at (a, 0), b/a^2 at (0, b) for the ellipse
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 64)
    assert abs(nodes.curvatures[0] - 2.0) < 1e-12
    assert abs(nodes.curvatures[16] - 0.25) < 1e-12


def test_normals_outward_unit():
    for kind, params in [("circle", {"radius": 1.5}),
                         ("ellipse", {"a": 2.0, "b": 1.0}),
                         ("kite", {})]:
        nodes = quadrature_nodes(make_curve(kind, **params), 128)
        assert np.allclose(np.linalg.norm(nodes.normals, axis=1), 1.0, atol=1e-12)
        # stepping along the normal must increase distance from the centroid
        centroid = np.average(nodes.points, axis=0, weights=nodes.weights)
        outside = nodes.points + 1e-6 * nodes.normals
        inside = nodes.points - 1e-6 * nodes.normals
        d_out = np.linalg.norm(outside - centroid, axis=1)
        d_in = np.linalg.norm(inside - centroid, axis=1)
        assert np.all(d_out > d_in)


def test_kite_perimeter_spectrally_converged():
    p1 = quadrature_nodes(make_curve("kite"), 128).perimeter
    p2 = quadrature_nodes(make_curve("kite"), 256).perimeter
    assert abs(p1 - p2) < 1e-10


@pytest.mark.parametrize("kind, params", [("circle", {"radius": 1.5}),
                                          ("ellipse", {"a": 2.0, "b": 1.0}),
                                          ("kite", {})])
def test_pairwise_distinct_distances_index_r(kind, params):
    nodes = quadrature_nodes(make_curve(kind, **params), 64)
    pw = nodes.pairwise
    off = ~np.eye(nodes.n, dtype=bool)
    assert pw.r_index.dtype == np.int32
    assert np.array_equal(pw.r_distinct[pw.r_index][off], pw.r[off])
    assert np.all(np.diff(pw.r_distinct) > 0)
    assert not pw.r_distinct.flags.writeable
    assert not pw.r_index.flags.writeable


def test_quadrature_nodes_validation():
    curve = make_curve("circle", radius=1.0)
    with pytest.raises(ValueError):
        quadrature_nodes(curve, 15)
    with pytest.raises(ValueError):
        quadrature_nodes(curve, 33)
    with pytest.raises(ValueError):
        quadrature_nodes(make_curve("sphere", radius=1.0), 64)


def test_make_curve_validation():
    with pytest.raises(ValueError):
        make_curve("ellipse", a=1.0, b=2.0)
    with pytest.raises(ValueError):
        make_curve("circle", radius=-1.0)
    with pytest.raises(ValueError):
        make_curve("hexagon")
    with pytest.raises(ValueError):
        make_curve("kite", radius=1.0)


def test_interior_points_unit_disk():
    curve = make_curve("circle", radius=1.0)
    grid = interior_points(curve, 0.02, buffer=0.05)
    r = np.linalg.norm(grid.points, axis=1)
    assert np.all(r < 1.0 - 0.05 + 0.021)
    area = float(np.sum(grid.weights))
    # grid covers the disk minus an O(buffer) collar
    assert area < np.pi
    assert area > np.pi - 2.0 * np.pi * (0.05 + 0.03)


def test_interior_points_ellipse_inside():
    curve = make_curve("ellipse", a=2.0, b=1.0)
    grid = interior_points(curve, 0.05, buffer=0.08)
    x, y = grid.points[:, 0], grid.points[:, 1]
    assert np.all((x / 2.0) ** 2 + y ** 2 < 1.0)
    assert grid.buffer == 0.08


def test_node_arrays_are_read_only():
    # a NodeSet is shared by the sweep's threads; its arrays are marked
    # read-only when it is built, also when dataclasses.replace builds it
    nodes = quadrature_nodes(make_curve("kite"), 32)
    moved = dataclasses.replace(nodes, points=nodes.points + 1.0)
    for record in (nodes, moved):
        for name in ("t", "points", "jacobians", "weights", "normals", "curvatures"):
            array = getattr(record, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("n", [10 ** 400, 10 ** 5, MAX_NODES + 2])
def test_node_count_cap(n):
    # the first N x N array would be allocated far past the cap: refused
    # by name before any array is built
    with pytest.raises(ValueError, match=f"^node count n must be at most {MAX_NODES}$"):
        quadrature_nodes(make_curve("circle"), n)


@pytest.mark.parametrize("degree", [10 ** 400, 10 ** 5, MAX_SPHERE_DEGREE + 1])
def test_sphere_degree_cap(degree):
    with pytest.raises(ValueError,
                       match=f"^sphere degree must be at most {MAX_SPHERE_DEGREE}$"):
        Sphere(degree, 1.0)


def test_sizes_up_to_the_caps_pass():
    # the caps leave room for the largest sizes in use (n = 1024,
    # degree 120); the constructors at the caps allocate O(N) only
    for n in (1024, MAX_NODES):
        assert quadrature_nodes(make_curve("circle"), n).n == n
    for degree in (120, MAX_SPHERE_DEGREE):
        assert Sphere(degree, 1.0).L == degree
