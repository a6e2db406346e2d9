"""arborq: exact tree-indexed q-series with solvers, specializations and checks."""

from .algebra import (
    ExactDivisionError,
    NewtonPolygon,
    PoleError,
    QPoly,
    QRat,
    QSeries,
    XPoly,
    cyclotomic,
    factor_cyclotomic,
    newton_polygon,
    q_integer,
    subst_q,
)

__version__ = "0.1.0"
