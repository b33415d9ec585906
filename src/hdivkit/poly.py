"""The benchmark tracer's marker for fields it does not count.

The tracer skips DOF vectors of isinstance(field, VectorPoly2D) and imports
this module before it patches; hdivkit itself never imports it.  Members are
registered as virtual subclasses.  Monomial polynomials live in the tests'
oracle (tests/monomial_oracle.py).
"""

import abc

from .elements import SpaceMember


class VectorPoly2D(abc.ABC):
    """Marker only: no fields, no methods."""


VectorPoly2D.register(SpaceMember)
