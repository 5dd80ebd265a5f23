"""Uniform meshes on (0,1) and piecewise-constant grid functions.

Everything downstream works on the product space R x L^2(0,1).  The L^2
factor is discretized by functions that are constant on each cell of a
uniform mesh with n cells of width 1/n:

    |--u_1--|--u_2--| ... |--u_n--|
    0      1/n     2/n   (n-1)/n  1

An L^2 inner product is the cell width times the sum of the products of
cell values, the exact pairing of the represented step functions.  Every
sum of products behind a printed number is _row_dots, in one fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshMismatchError(ValueError):
    """Raised when a solver's start point lives on another mesh."""


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


def _row_dots(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Dot products of matching rows along the last axis, in a fixed order.

    A single row is numpy's pairwise sum of the products (np.add.reduce),
    whose order depends on the row's length only, not on the BLAS kernel
    picked at run time, and whose error grows as log n; a stack of rows
    goes to einsum, one dot per row and no product array, written to out
    if it is given.
    """
    if x.ndim == 1:
        return np.add.reduce(x * y)
    return np.einsum("...i,...i->...", x, y, out=out)

