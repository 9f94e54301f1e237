"""Phase space declaration: canonical pairs plus named parameters.

The variable names are fixed: x1..xn and p1..pn.  The symbol order is
fixed once and for all:

    x_1 > x_2 > ... > x_n > p_1 > ... > p_n > parameters

Every polynomial exponent vector, the graded-lexicographic monomial
order, and canonical printing all use this order.  The symplectic
pairing x_i <-> p_i is hard-coded and never configurable.
"""

from __future__ import annotations

from .errors import UnknownSymbolError, ValidationError

# The largest n.  Every name and symbol index is built before any budget
# applies, so a larger n is refused first.
MAX_PAIRS = 10_000


class Record:
    """A read-only value with `__slots__`: assigning or deleting an
    attribute raises AttributeError, and `_assign` sets each slot once,
    the `_fields` in order, then any other slot by keyword.  Equality,
    the hash and the repr use the `_fields` alone."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values, **others) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        for name, value in others.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class PhaseSpace(Record):
    __slots__ = ("n", "parameters", "coordinates", "momenta", "symbols", "_index")
    _fields = ("n", "parameters")

    def __init__(self, n: int, parameters: tuple[str, ...] = ()):
        if n < 1:
            raise ValidationError("phase space needs n >= 1")
        if n > MAX_PAIRS:
            raise ValidationError(f"phase space needs n <= {MAX_PAIRS}")
        parameters = tuple(parameters)
        coordinates = tuple(f"x{i}" for i in range(1, n + 1))
        momenta = tuple(f"p{i}" for i in range(1, n + 1))
        names = coordinates + momenta + parameters
        if len(set(names)) != len(names):
            raise ValidationError("variable and parameter names must be pairwise distinct")
        self._assign(n, parameters, coordinates=coordinates, momenta=momenta, symbols=names,
                     _index={s: i for i, s in enumerate(names)})

    def __repr__(self):
        return (f"PhaseSpace(n={self.n!r}, parameters={self.parameters!r}, "
                f"coordinates={self.coordinates!r}, momenta={self.momenta!r})")

    @property
    def nsyms(self) -> int:
        return 2 * self.n + len(self.parameters)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(name) from None

    def is_variable(self, name: str) -> bool:
        """True for coordinates and momenta; parameters are constants."""
        return name in self._index and self._index[name] < 2 * self.n

    def coordinate_index(self, i: int) -> int:
        """Symbol index of x_i (1-based i)."""
        return i - 1

    def momentum_index(self, i: int) -> int:
        """Symbol index of p_i (1-based i)."""
        return self.n + i - 1
