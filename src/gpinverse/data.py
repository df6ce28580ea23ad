"""Training dataset container shared by the surrogate and inversion modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of (input, output) pairs over a box domain.

    ``x`` has shape (n, d), ``y`` shape (n,), and ``bounds`` is one
    (lower, upper) pair per dimension.  Instances are immutable; growing the
    dataset returns a new object so concurrent readers never see partial
    state.
    """

    x: np.ndarray
    y: np.ndarray
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"got {x.shape[0]} inputs but {y.shape[0]} outputs"
            )
        if x.shape[1] != len(self.bounds):
            raise ShapeError(
                f"inputs are {x.shape[1]}-dimensional but bounds describe "
                f"{len(self.bounds)} dimensions"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(
            self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def widths(self) -> np.ndarray:
        """Per-dimension box widths."""
        return np.array([hi - lo for lo, hi in self.bounds])

    def extended(self, new_x: np.ndarray, new_y: np.ndarray) -> "Dataset":
        """Return a new dataset with extra rows appended in order."""
        new_x = np.atleast_2d(np.asarray(new_x, dtype=float))
        new_y = np.asarray(new_y, dtype=float).ravel()
        return Dataset(
            x=np.vstack([self.x, new_x]),
            y=np.concatenate([self.y, new_y]),
            bounds=self.bounds,
        )
