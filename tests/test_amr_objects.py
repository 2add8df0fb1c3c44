"""Tests for moving objects, intersection classification, and movement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.objects import (
    Classification,
    MovingObject,
    ObjectSpec,
    Shape,
    sphere,
)

INSIDE = Classification.INSIDE
OUTSIDE = Classification.OUTSIDE
SURFACE = Classification.SURFACE


def obj(shape, center=(0.5, 0.5, 0.5), size=(0.2, 0.2, 0.2), **kw):
    return MovingObject(ObjectSpec(shape=shape, center=center, size=size, **kw))


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_bad_center():
    with pytest.raises(ValueError):
        ObjectSpec(shape=Shape.SOLID_SPHEROID, center=(0.5, 0.5), size=(1, 1, 1))


def test_spec_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        ObjectSpec(
            shape=Shape.SOLID_SPHEROID, center=(0.5, 0.5, 0.5), size=(0, 1, 1)
        )


def test_shape_solid_flag():
    assert Shape.SOLID_SPHEROID.solid
    assert not Shape.SURFACE_SPHEROID.solid
    assert Shape.SOLID_CYLINDER_Z.solid


# ----------------------------------------------------------------------
# Spheroid classification
# ----------------------------------------------------------------------
def test_spheroid_block_far_away_outside():
    o = obj(Shape.SURFACE_SPHEROID)
    assert o.classify(((0.9, 1.0), (0.9, 1.0), (0.9, 1.0))) is OUTSIDE


def test_spheroid_block_at_center_inside():
    o = obj(Shape.SURFACE_SPHEROID)
    b = ((0.45, 0.55), (0.45, 0.55), (0.45, 0.55))
    assert o.classify(b) is INSIDE


def test_spheroid_block_crossing_boundary_surface():
    o = obj(Shape.SURFACE_SPHEROID)
    b = ((0.6, 0.8), (0.45, 0.55), (0.45, 0.55))  # crosses x = 0.7 shell
    assert o.classify(b) is SURFACE


def test_surface_spheroid_refines_only_surface():
    o = obj(Shape.SURFACE_SPHEROID)
    assert o.refine_trigger(((0.6, 0.8), (0.45, 0.55), (0.45, 0.55)))
    assert not o.refine_trigger(((0.45, 0.55),) * 3)  # inside, hollow
    assert not o.refine_trigger(((0.9, 1.0),) * 3)


def test_solid_spheroid_refines_interior_too():
    o = obj(Shape.SOLID_SPHEROID)
    assert o.refine_trigger(((0.45, 0.55),) * 3)


# ----------------------------------------------------------------------
# Rectangle classification
# ----------------------------------------------------------------------
def test_rectangle_classifications():
    o = obj(Shape.SURFACE_RECTANGLE)
    assert o.classify(((0.0, 0.2), (0.0, 0.2), (0.0, 0.2))) is OUTSIDE
    assert o.classify(((0.4, 0.6), (0.4, 0.6), (0.4, 0.6))) is INSIDE
    assert o.classify(((0.2, 0.4), (0.4, 0.6), (0.4, 0.6))) is SURFACE


# ----------------------------------------------------------------------
# Hemisphere classification
# ----------------------------------------------------------------------
def test_hemisphere_positive_x():
    o = obj(Shape.SURFACE_HEMISPHERE_PX)
    # Block entirely on the negative-x side of center: outside.
    assert o.classify(((0.2, 0.4), (0.45, 0.55), (0.45, 0.55))) is OUTSIDE
    # Block inside the sphere on the +x side: inside.
    assert o.classify(((0.52, 0.6), (0.48, 0.52), (0.48, 0.52))) is INSIDE


def test_hemisphere_negative_x():
    o = obj(Shape.SURFACE_HEMISPHERE_NX)
    assert o.classify(((0.6, 0.8), (0.45, 0.55), (0.45, 0.55))) is OUTSIDE


# ----------------------------------------------------------------------
# Cylinder classification
# ----------------------------------------------------------------------
def test_cylinder_z_cases():
    o = obj(Shape.SOLID_CYLINDER_Z)
    # Far in xy: outside regardless of z.
    assert o.classify(((0.9, 1.0), (0.9, 1.0), (0.4, 0.6))) is OUTSIDE
    # Near axis, within slab: inside.
    assert o.classify(((0.45, 0.55), (0.45, 0.55), (0.45, 0.55))) is INSIDE
    # Near axis but crossing the z cap: surface.
    assert o.classify(((0.45, 0.55), (0.45, 0.55), (0.6, 0.8))) is SURFACE


def test_cylinder_axes_differ():
    ox = obj(Shape.SOLID_CYLINDER_X)
    oz = obj(Shape.SOLID_CYLINDER_Z)
    block = ((0.45, 0.55), (0.45, 0.55), (0.1, 0.25))  # below the z-slab
    assert oz.classify(block) is OUTSIDE
    assert ox.classify(block) is not INSIDE  # outside the yz-ellipse


# ----------------------------------------------------------------------
# Movement & growth
# ----------------------------------------------------------------------
def test_advance_moves_center():
    o = obj(Shape.SURFACE_SPHEROID, move=(0.01, -0.02, 0.0))
    o.advance(5)
    assert o.center[0] == pytest.approx(0.55)
    assert o.center[1] == pytest.approx(0.40)


def test_advance_grows_size():
    o = obj(Shape.SURFACE_SPHEROID, grow=(0.01, 0.0, 0.0))
    o.advance(3)
    assert o.size[0] == pytest.approx(0.23)


def test_advance_rejects_a_size_shrunk_to_zero():
    o = obj(Shape.SURFACE_SPHEROID, size=(0.1, 0.1, 0.1),
            grow=(-0.05, -0.05, -0.05))
    o.advance(1)
    assert o.size == [0.05, 0.05, 0.05]
    with pytest.raises(ValueError, match=r"SURFACE_SPHEROID .*size 0\.0 "
                       r"on axis 0 at step 1 of advance\(1\)"):
        o.advance(1)
    with pytest.raises(ValueError, match=r"axis 0 at step 2 of advance\(2\)"):
        obj(Shape.SURFACE_SPHEROID, size=(0.1, 0.1, 0.1),
            grow=(-0.05, -0.05, -0.05)).advance(2)


def test_advance_rejects_a_negative_size():
    o = obj(Shape.SURFACE_RECTANGLE, size=(0.1, 0.1, 0.1),
            grow=(-0.15, -0.15, -0.15))
    with pytest.raises(ValueError, match=r"SURFACE_RECTANGLE .*size "
                       r"-0\.0499.* on axis 0 at step 1 of advance\(1\)"):
        o.advance(1)
    o = obj(Shape.SOLID_RECTANGLE, size=(0.2, 0.1, 0.2),
            grow=(0.0, -0.15, 0.0))
    with pytest.raises(ValueError, match=r"SOLID_RECTANGLE .* on axis 1 "):
        o.advance(3)


def test_bounce_reflects_at_domain_edge():
    o = obj(
        Shape.SURFACE_SPHEROID,
        center=(0.85, 0.5, 0.5),
        size=(0.1, 0.1, 0.1),
        move=(0.1, 0.0, 0.0),
        bounce=True,
    )
    o.advance(1)  # 0.95 + 0.1 extent > 1 -> reflect
    assert o.move[0] == -0.1
    o.advance(1)
    assert o.center[0] == pytest.approx(0.85)


def test_no_bounce_object_leaves_domain():
    o = obj(
        Shape.SURFACE_SPHEROID,
        center=(0.9, 0.5, 0.5),
        move=(0.1, 0.0, 0.0),
        bounce=False,
    )
    o.advance(3)
    assert o.center[0] == pytest.approx(1.2)


def test_sphere_helper():
    spec = sphere(center=(0.1, 0.2, 0.3), radius=0.05, solid=True)
    assert spec.shape is Shape.SOLID_SPHEROID
    assert spec.size == (0.05, 0.05, 0.05)


# ----------------------------------------------------------------------
# Property: classification consistency
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    cx=st.floats(min_value=0.1, max_value=0.9),
    cy=st.floats(min_value=0.1, max_value=0.9),
    cz=st.floats(min_value=0.1, max_value=0.9),
    r=st.floats(min_value=0.05, max_value=0.4),
    x0=st.floats(min_value=0.0, max_value=0.9),
    w=st.floats(min_value=0.01, max_value=0.3),
)
def test_property_spheroid_classification_consistent(cx, cy, cz, r, x0, w):
    """The block's corner/center point membership agrees with the
    classification: INSIDE blocks have all probe points inside, OUTSIDE
    blocks have none."""
    o = MovingObject(sphere(center=(cx, cy, cz), radius=r))
    bounds = ((x0, x0 + w), (0.4, 0.5), (0.4, 0.5))
    cls = o.classify(bounds)

    def inside(p):
        return sum(((p[a] - o.center[a]) / o.size[a]) ** 2
                   for a in range(3)) < 1.0

    corners = [
        (x, y, z)
        for x in bounds[0]
        for y in bounds[1]
        for z in bounds[2]
    ]
    center = tuple((lo + hi) / 2 for lo, hi in bounds)
    probes = corners + [center]
    inside_count = sum(inside(p) for p in probes)
    if cls is INSIDE:
        assert inside_count == len(probes)
    elif cls is OUTSIDE:
        assert inside_count == 0


# ----------------------------------------------------------------------
# refine_trigger: the extent exit agrees with the classify-based rule
# ----------------------------------------------------------------------
def _classify_rule(o, bounds):
    cls = o.classify(bounds)
    return cls is SURFACE or (o.spec.shape.solid and cls is INSIDE)


def _edge_boxes(o, rng):
    """Boxes whose edge on one axis sits at ``center ± size`` exactly, at
    the extent exit's threshold, or one ``nextafter`` to either side of
    either, with the other axes straddling the centre."""
    for axis in range(3):
        c, s = o.center[axis], o.size[axis]
        for edge in (c - s, c + s, c - s * (1 + 1e-9), c + s * (1 + 1e-9)):
            for x in (math.nextafter(edge, -1.0), edge,
                      math.nextafter(edge, 2.0)):
                width = rng.uniform(1e-3, 0.2)
                for lo, hi in ((x, x + width), (x - width, x)):
                    bounds = []
                    for a in range(3):
                        if a == axis:
                            bounds.append((lo, hi))
                        else:
                            w = rng.uniform(0.0, o.size[a])
                            bounds.append((o.center[a] - w, o.center[a] + w))
                    yield tuple(bounds)


def test_refine_trigger_matches_classify_for_every_shape():
    rng = random.Random(20)
    checked = 0
    for shape in Shape:
        for _ in range(4):
            o = obj(shape,
                    center=tuple(rng.uniform(0.2, 0.8) for _ in range(3)),
                    size=tuple(rng.uniform(0.02, 0.3) for _ in range(3)))
            boxes = list(_edge_boxes(o, rng))
            for _ in range(300):
                box = []
                for _a in range(3):
                    lo = rng.uniform(0.0, 1.0)
                    box.append((lo, lo + rng.uniform(1e-3, 0.3)))
                boxes.append(tuple(box))
            for bounds in boxes:
                assert o.refine_trigger(bounds) == _classify_rule(o, bounds), (
                    shape, o.center, o.size, bounds)
                checked += 1
    assert checked == 16 * 4 * (3 * 4 * 3 * 2 + 300)
