"""Plane-based geometric algebra for euclidean plane geometry.

Products and duality live in :mod:`pga2d.kernel`; the tolerance rule and the
value base in :mod:`pga2d.multivector`; typed line/point views in
:mod:`pga2d.elements`; normalization and classification in
:mod:`pga2d.metric`; joins, meets, measurements and projections in
:mod:`pga2d.geometry`; reflections, motors and the transport solver in
:mod:`pga2d.isometry`; the construction-script interpreter in
:mod:`pga2d.script`; the results that no script verb reaches (norms, polarity,
rejection, products of three, motor exp/log and factorization) in
:mod:`pga2d.algebra`.  A module that not every run needs (kernel, geometry,
isometry, algebra) loads on first use: on the first read of one of its names
here, or of the module itself.
"""

from .elements import IdealPoint, Line, Point, Pseudoscalar
from .errors import (
    AlgebraError,
    ClassificationError,
    ConstructionError,
    DomainError,
    EvaluationError,
    IncidenceError,
    OperandError,
    OrientationError,
    ParseError,
    RenderError,
    ScriptError,
)
from .metric import is_ideal, normalize
from .multivector import DEFAULT_TOL

__version__ = "0.1.0"

# name -> the module that defines it, loaded on the name's first read
_LAZY = {"Multivector": "kernel"} | dict.fromkeys((
    "angle", "distance", "join", "meet", "midline", "midpoint", "project",
), "geometry") | dict.fromkeys((
    "IDENTITY_MOTOR", "Motor", "OddVersor", "reflect", "rotator", "rotor_from_lines",
    "sandwich", "solve_point_line_transport", "translator", "translator_by",
), "isometry") | dict.fromkeys((
    "perp_line_through", "reject", "triple_points", "triple_lines", "symmetric_line",
    "norm", "ideal_norm", "polar", "ideal_point_of", "factor_point",
    "exp_bivector", "log_motor", "interpolate", "factor_motor",
), "algebra")
# a star import binds the public names above, submodules aside, and loads the lazy ones
__all__ = [n for n, v in globals().items() if n[0] != "_" and type(v).__name__ != "module"]
__all__ += _LAZY


def __getattr__(name: str):
    """A name of _LAZY, or one of its modules, loaded on its first read."""
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports; import_module's is not
    value = __import__(f"{__name__}.{module}", fromlist=("*",))
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
