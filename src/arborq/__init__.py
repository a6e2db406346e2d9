"""arborq: exact tree-indexed q-series with solvers, specializations and checks.

The algebra names below load on first use (PEP 562), so a process that only
reads the cache never compiles the arithmetic layer.
"""

__version__ = "0.1.0"

__all__ = [
    "ExactDivisionError",
    "NewtonPolygon",
    "PoleError",
    "QPoly",
    "QRat",
    "QSeries",
    "XPoly",
    "cyclotomic",
    "factor_cyclotomic",
    "newton_polygon",
    "q_integer",
    "subst_q",
]


def __getattr__(name: str):
    if name in __all__:
        from . import algebra

        return getattr(algebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
