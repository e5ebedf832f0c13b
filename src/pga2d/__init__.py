"""Plane-based geometric algebra for euclidean plane geometry.

Products and duality live in :mod:`pga2d.kernel`, loaded on first use; the
tolerance rule and the value base in :mod:`pga2d.multivector`; typed line/point
views in :mod:`pga2d.elements`; norms and classification in :mod:`pga2d.metric`;
joins, meets, measurements and projections in :mod:`pga2d.geometry`; reflections,
motors and the transport solver in :mod:`pga2d.isometry`; the construction-script
interpreter in :mod:`pga2d.script`.
"""

from .elements import IdealPoint, Line, Point, Pseudoscalar
from .errors import (
    AlgebraError,
    ClassificationError,
    ConstructionError,
    DomainError,
    EvaluationError,
    IncidenceError,
    OrientationError,
    ParseError,
    RenderError,
    ScriptError,
)
from .geometry import (
    angle,
    distance,
    join,
    meet,
    midline,
    midpoint,
    perp_line_through,
    project,
    reject,
    symmetric_line,
    triple_lines,
    triple_points,
)
from .isometry import (
    IDENTITY_MOTOR,
    Motor,
    OddVersor,
    exp_bivector,
    factor_motor,
    interpolate,
    log_motor,
    reflect,
    rotator,
    rotor_from_lines,
    sandwich,
    solve_point_line_transport,
    translator,
    translator_by,
)
from .metric import (
    factor_point,
    ideal_inner,
    ideal_norm,
    ideal_point_of,
    is_ideal,
    norm,
    normalize,
    polar,
)
from .multivector import DEFAULT_TOL

__version__ = "0.1.0"


def __getattr__(name: str):
    """Multivector, loading the kernel on its first read."""
    if name != "Multivector":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .kernel import Multivector

    globals()[name] = Multivector
    return Multivector
