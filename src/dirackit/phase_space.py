"""Phase space declaration: canonical pairs plus named parameters.

The variable names are fixed: x1..xn and p1..pn.  The symbol order is
fixed once and for all:

    x_1 > x_2 > ... > x_n > p_1 > ... > p_n > parameters

Every polynomial exponent vector, the graded-lexicographic monomial
order, and canonical printing all use this order.  The symplectic
pairing x_i <-> p_i is hard-coded and never configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownSymbolError, ValidationError

# The largest n.  Every name and symbol index is built before any budget
# applies, so a larger n is refused first.
MAX_PAIRS = 10_000


@dataclass(frozen=True)
class PhaseSpace:
    n: int
    parameters: tuple[str, ...] = ()
    coordinates: tuple[str, ...] = field(init=False, compare=False)
    momenta: tuple[str, ...] = field(init=False, compare=False)
    symbols: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("phase space needs n >= 1")
        if self.n > MAX_PAIRS:
            raise ValidationError(f"phase space needs n <= {MAX_PAIRS}")
        if not isinstance(self.parameters, tuple):
            object.__setattr__(self, "parameters", tuple(self.parameters))
        coordinates = tuple(f"x{i}" for i in range(1, self.n + 1))
        momenta = tuple(f"p{i}" for i in range(1, self.n + 1))
        names = coordinates + momenta + self.parameters
        if len(set(names)) != len(names):
            raise ValidationError("variable and parameter names must be pairwise distinct")
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "symbols", names)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(names)})

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
