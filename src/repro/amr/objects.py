"""Moving objects that drive refinement decisions.

MiniAMR defines up to 16 object types (rectangles, spheroids, hemispheres,
cylinders — surface or solid).  Objects have an initial center and size,
per-timestep movement and growth rates, and may bounce off the domain
boundary.  A mesh block is tagged for refinement when it intersects an
object's *surface* (and, for solid objects, also when it lies inside).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum


class Classification(Enum):
    OUTSIDE = "outside"
    SURFACE = "surface"
    INSIDE = "inside"


class Shape(IntEnum):
    """Object type codes (mirroring miniAMR's taxonomy)."""

    SURFACE_RECTANGLE = 0
    SOLID_RECTANGLE = 1
    SURFACE_SPHEROID = 2
    SOLID_SPHEROID = 3
    SURFACE_HEMISPHERE_PX = 4
    SOLID_HEMISPHERE_PX = 5
    SURFACE_HEMISPHERE_NX = 6
    SOLID_HEMISPHERE_NX = 7
    SURFACE_CYLINDER_X = 8
    SOLID_CYLINDER_X = 9
    SURFACE_CYLINDER_Y = 10
    SOLID_CYLINDER_Y = 11
    SURFACE_CYLINDER_Z = 12
    SOLID_CYLINDER_Z = 13
    SURFACE_HEMISPHERE_PZ = 14
    SOLID_HEMISPHERE_PZ = 15

    @property
    def solid(self) -> bool:
        return bool(self.value & 1)


@dataclass(frozen=True)
class ObjectSpec:
    """Immutable description of one input object."""

    shape: Shape
    center: tuple  # (cx, cy, cz) in the unit cube
    size: tuple  # semi-axes (sx, sy, sz)
    move: tuple = (0.0, 0.0, 0.0)  # per-timestep movement
    grow: tuple = (0.0, 0.0, 0.0)  # per-timestep size increase
    bounce: bool = False

    def __post_init__(self):
        if len(self.center) != 3 or len(self.size) != 3:
            raise ValueError("center and size must have 3 components")
        if any(s <= 0 for s in self.size):
            raise ValueError("object size components must be positive")


class MovingObject:
    """Mutable runtime state of one object (advanced every timestep)."""

    def __init__(self, spec: ObjectSpec):
        self.spec = spec
        self._solid = spec.shape.solid
        self.center = list(spec.center)
        self.size = list(spec.size)
        self.move = list(spec.move)
        self.grow = list(spec.grow)

    # ------------------------------------------------------------------
    def advance(self, timesteps: int = 1):
        """Advance position and size by ``timesteps`` steps.

        Raises :class:`ValueError` when ``grow`` would take a size to 0 or
        below: no shape has such a size (the ellipse tests divide by it,
        and a negative one inverts the box tests).
        """
        for step in range(1, timesteps + 1):
            for a in range(3):
                size = self.size[a] + self.grow[a]
                if size <= 0:
                    raise ValueError(
                        f"{self.spec.shape.name} object shrinks to size "
                        f"{size!r} on axis {a} at step {step} of "
                        f"advance({timesteps}) (grow {self.grow[a]!r})"
                    )
                self.center[a] += self.move[a]
                self.size[a] = size
                if self.spec.bounce:
                    # Reflect when the object's extent crosses the domain.
                    if self.center[a] - self.size[a] < 0.0 and self.move[a] < 0:
                        self.move[a] = -self.move[a]
                    elif (
                        self.center[a] + self.size[a] > 1.0
                        and self.move[a] > 0
                    ):
                        self.move[a] = -self.move[a]

    # ------------------------------------------------------------------
    def classify(self, bounds) -> Classification:
        """Classify a block's bounding box against this object."""
        shape = self.spec.shape
        if shape in (Shape.SURFACE_RECTANGLE, Shape.SOLID_RECTANGLE):
            return self._classify_box(bounds)
        if shape in (Shape.SURFACE_SPHEROID, Shape.SOLID_SPHEROID):
            return self._classify_ellipsoid(bounds, axes=(0, 1, 2))
        if shape in (
            Shape.SURFACE_HEMISPHERE_PX,
            Shape.SOLID_HEMISPHERE_PX,
        ):
            return self._classify_half(bounds, axis=0, positive=True)
        if shape in (
            Shape.SURFACE_HEMISPHERE_NX,
            Shape.SOLID_HEMISPHERE_NX,
        ):
            return self._classify_half(bounds, axis=0, positive=False)
        if shape in (
            Shape.SURFACE_HEMISPHERE_PZ,
            Shape.SOLID_HEMISPHERE_PZ,
        ):
            return self._classify_half(bounds, axis=2, positive=True)
        if shape in (Shape.SURFACE_CYLINDER_X, Shape.SOLID_CYLINDER_X):
            return self._classify_cylinder(bounds, axis=0)
        if shape in (Shape.SURFACE_CYLINDER_Y, Shape.SOLID_CYLINDER_Y):
            return self._classify_cylinder(bounds, axis=1)
        if shape in (Shape.SURFACE_CYLINDER_Z, Shape.SOLID_CYLINDER_Z):
            return self._classify_cylinder(bounds, axis=2)
        raise ValueError(f"unhandled shape {shape}")  # pragma: no cover

    def refine_trigger(self, bounds) -> bool:
        """Whether a block with ``bounds`` must be refined for this object.

        Every shape lies within ``center ± |size|``, so a box past that
        (by a 1e-9 relative margin) on any axis returns at once.  Exact:
        there :meth:`classify` reads OUTSIDE, as rounding is monotonic and
        an ellipse term ``((lo - c) / size) ** 2`` exceeds 1."""
        for a in (0, 1, 2):
            lo, hi = bounds[a]
            c = self.center[a]
            reach = abs(self.size[a]) * (1 + 1e-9)
            if lo - c > reach or c - hi > reach:
                return False
        cls = self.classify(bounds)
        if cls is Classification.SURFACE:
            return True
        return self._solid and cls is Classification.INSIDE

    # ------------------------------------------------------------------
    # Shape primitives
    # ------------------------------------------------------------------
    def _classify_box(self, bounds) -> Classification:
        inside_all = True
        for a in range(3):
            lo, hi = bounds[a]
            olo = self.center[a] - self.size[a]
            ohi = self.center[a] + self.size[a]
            if hi <= olo or lo >= ohi:
                return Classification.OUTSIDE
            if not (lo >= olo and hi <= ohi):
                inside_all = False
        return Classification.INSIDE if inside_all else Classification.SURFACE

    def _ellipse_minmax(self, bounds, axes):
        """Min and max of sum(((p-c)/s)^2) over the box, for given axes."""
        fmin = 0.0
        fmax = 0.0
        for a in axes:
            lo, hi = bounds[a]
            c = self.center[a]
            s = self.size[a]
            nearest = min(max(c, lo), hi)
            farthest = lo if (c - lo) > (hi - c) else hi
            fmin += ((nearest - c) / s) ** 2
            fmax += ((farthest - c) / s) ** 2
        return fmin, fmax

    def _classify_ellipsoid(self, bounds, axes) -> Classification:
        fmin, fmax = self._ellipse_minmax(bounds, axes)
        if fmin > 1.0:
            return Classification.OUTSIDE
        if fmax < 1.0:
            return Classification.INSIDE
        return Classification.SURFACE

    def _classify_halfspace(self, bounds, axis, positive) -> Classification:
        lo, hi = bounds[axis]
        c = self.center[axis]
        if positive:
            if lo >= c:
                return Classification.INSIDE
            if hi <= c:
                return Classification.OUTSIDE
        else:
            if hi <= c:
                return Classification.INSIDE
            if lo >= c:
                return Classification.OUTSIDE
        return Classification.SURFACE

    def _classify_slab(self, bounds, axis) -> Classification:
        lo, hi = bounds[axis]
        olo = self.center[axis] - self.size[axis]
        ohi = self.center[axis] + self.size[axis]
        if hi <= olo or lo >= ohi:
            return Classification.OUTSIDE
        if lo >= olo and hi <= ohi:
            return Classification.INSIDE
        return Classification.SURFACE

    @staticmethod
    def _intersect(a: Classification, b: Classification) -> Classification:
        if a is Classification.OUTSIDE or b is Classification.OUTSIDE:
            return Classification.OUTSIDE
        if a is Classification.INSIDE and b is Classification.INSIDE:
            return Classification.INSIDE
        return Classification.SURFACE

    def _classify_half(self, bounds, axis, positive) -> Classification:
        sph = self._classify_ellipsoid(bounds, axes=(0, 1, 2))
        half = self._classify_halfspace(bounds, axis, positive)
        return self._intersect(sph, half)

    def _classify_cylinder(self, bounds, axis) -> Classification:
        plane_axes = tuple(a for a in range(3) if a != axis)
        disc = self._classify_ellipsoid(bounds, axes=plane_axes)
        slab = self._classify_slab(bounds, axis)
        return self._intersect(disc, slab)


def sphere(center, radius, move=(0.0, 0.0, 0.0), grow=(0.0, 0.0, 0.0),
           bounce=False, solid=False) -> ObjectSpec:
    """Convenience constructor for the spherical inputs used in the paper."""
    shape = Shape.SOLID_SPHEROID if solid else Shape.SURFACE_SPHEROID
    return ObjectSpec(
        shape=shape,
        center=tuple(center),
        size=(radius, radius, radius),
        move=tuple(move),
        grow=tuple(grow),
        bounce=bounce,
    )
