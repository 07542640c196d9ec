"""Exception types shared across the package, and the one way it warns.

Every NetateError pickles with its message and fields, so a pool child's error is the serial run's."""

from __future__ import annotations

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_caller(message: str) -> None:
    """Issue a UserWarning that names the first frame outside this package.

    Frames of the package's files, and of the `__init__` that dataclasses
    generate (filename "<string>"), are skipped, so the warning names the
    line that called into the library, whichever path led to it.
    """
    frame, level = sys._getframe(1), 2  # stacklevel 2 is warn_caller's caller
    while frame.f_back is not None and frame.f_code.co_filename.startswith((_PACKAGE_DIR, "<string>")):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class NetateError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # from args and fields, not through type(self)(*args): a subclass __init__ may take other arguments
        return type(self).__new__, (type(self), *self.args), self.__dict__


class IsolatedVertexError(NetateError):
    """A vertex with degree zero where neighbor fractions are required."""

    def __init__(self, vertex: int):
        self.vertex = int(vertex)
        super().__init__(
            f"vertex {vertex} has no neighbors; exposure fractions and the "
            f"degree-ratio statistic are undefined (drop isolated vertices first)"
        )


class EmptyGroupError(NetateError):
    """A treatment arm contains no observations."""


class SingularDesignError(NetateError):
    """A group design matrix is rank deficient (or numerically so)."""

    def __init__(self, message: str, rcond: float):
        self.rcond = float(rcond)
        super().__init__(f"{message} (reciprocal condition number {rcond:.3e})")


class AllTrimmedError(NetateError):
    """Every query point failed the trimming conditions; estimate undefined."""


class ReplicateFailureError(NetateError, RuntimeError):
    """A method failed in more replicates than a Monte Carlo run tolerates."""


class InvalidAdjustmentError(NetateError):
    """An adjustment function returned a non-finite value."""


class InvalidVarianceError(NetateError):
    """A negative variance estimate was passed where v >= 0 is required."""


class UnsupportedDimensionError(NetateError):
    """Covariate dimension outside the supported kernel-order table (1..10)."""


class QuadratureError(NetateError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class EdgeListParseError(NetateError):
    """Malformed edge-list row."""

    def __init__(self, path: str, line: int, message: str):
        self.line = int(line)
        super().__init__(f"{path}:{line}: {message}")


class UnknownScenarioError(NetateError):
    """Scenario or outcome-model id not present in the registry."""


class UnknownGraphonError(NetateError):
    """Graphon registry key not recognized."""
