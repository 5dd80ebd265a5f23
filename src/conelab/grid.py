"""Uniform meshes on (0,1) and piecewise-constant grid functions.

Everything downstream works on the product space R x L^2(0,1).  The L^2
factor is discretized by functions that are constant on each cell of a
uniform mesh with n cells of width 1/n:

    |--u_1--|--u_2--| ... |--u_n--|
    0      1/n     2/n   (n-1)/n  1

Inner products carry the cell width, so l2_inner agrees with the exact
L^2 pairing of the represented step functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshMismatchError(ValueError):
    """Raised when two grid functions live on different meshes."""


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of the unit interval with n cells."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"cell count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"cell count must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def width(self) -> float:
        """Cell width 1/n."""
        return 1.0 / self.n


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on a Mesh, one value per cell.

    Values are frozen after construction; operations return new objects.
    """

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if vals.shape != (self.mesh.n,):
            raise ValueError(
                f"expected {self.mesh.n} cell values, got shape {np.shape(self.values)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("cell values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.n))

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "GridFunction":
        return cls(mesh, np.full(mesh.n, float(c)))


def _check_same_mesh(u: GridFunction, v: GridFunction) -> None:
    if u.mesh != v.mesh:
        raise MeshMismatchError(
            f"grid functions live on different meshes: n={u.mesh.n} vs n={v.mesh.n}"
        )


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Exact L^2(0,1) inner product of two step functions on one mesh."""
    _check_same_mesh(u, v)
    return u.mesh.width * float(np.dot(u.values, v.values))


def l2_norm_sq(u: GridFunction) -> float:
    """Exact squared L^2 norm, width * sum(u_i^2)."""
    return u.mesh.width * float(np.dot(u.values, u.values))
