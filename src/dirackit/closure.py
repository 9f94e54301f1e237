"""Bracket-algebra closure of a primary-quantity set and the
finite-dimensionality obstruction.

Each bracket {g_a, g_b} is decomposed exactly as a rational-linear
combination of the basis plus a constant (the central charge), or
else is a residual and has None for both.  A nonzero central charge in
a closed algebra rules out any finite-dimensional operator realization:
commutators are traceless, the identity is not.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import (
    Classification,
    SamplerConfig,
    TraceIdentity,
    classify_constraints,
    trace_identity,
)
from .brackets import DiracContext, bracket_table
from .errors import (
    NonPolynomialInputError,
    NotSecondClassError,
    ReportNotClosedError,
)
from .expr import RationalExpr
from .matrix import row_reduce_fractions
from .phase_space import PhaseSpace, Record
from .poly import Polynomial, coefficient_rows


class PrimarySet(Record):
    __slots__ = _fields = ("names", "exprs", "hamiltonian")

    def __init__(self, names: tuple[str, ...], exprs: tuple[RationalExpr, ...],
                 hamiltonian: RationalExpr | None = None):
        if not names or len(names) != len(exprs):
            raise ValueError("need matching nonempty name and expression lists")
        if len(set(names)) != len(names):
            raise ValueError("primary-quantity names must be distinct")
        self._assign(names, exprs, hamiltonian)

    def __len__(self):
        return len(self.names)


class Decomposition(Record):
    __slots__ = _fields = ("coefficients", "constant")

    def __init__(self, coefficients: tuple[Fraction, ...], constant: Fraction):
        self._assign(coefficients, constant)


class AlgebraReport(Record):
    # Entries of a bracket that did not decompose are None.  c holds the
    # k x k x k structure constants, z the k x k central charges, h the
    # k x k Hamiltonian coefficients or None, h_const the constant column
    # of {g_a, H} (nonzero is flagged) or None, and residuals maps (a, b)
    # to each non-decomposable bracket when the algebra is not closed.
    __slots__ = _fields = ("mode", "names", "closed", "c", "z", "h", "h_const", "residuals",
                           "notes")

    def __init__(self, mode: str, names: tuple[str, ...], closed: bool, c: tuple, z: tuple,
                 h: tuple | None, h_const: tuple | None, residuals: dict,
                 notes: tuple[str, ...] = ()):
        self._assign(mode, names, closed, c, z, h, h_const, residuals, notes)


class Verdict(Record):
    # kind is infinite_dimensional, no_obstruction_detected or trivial_system.
    __slots__ = _fields = ("kind", "witness", "explanation")

    def __init__(self, kind: str, witness: dict | None, explanation: str):
        self._assign(kind, witness, explanation)


def _solve_exact(rows: list[list[Fraction]],
                 rhs: list[list[Fraction]]) -> list[list[Fraction] | None]:
    """Solve A x = b exactly over the rationals for each column b of rhs in
    one `row_reduce_fractions` of [A | rhs]; None for a column with no
    solution.  Free unknowns are set to zero; the pivot columns depend on
    A alone, so each x is what a lone solve gives."""
    ncols = len(rows[0])
    a = [list(r) + list(b) for r, b in zip(rows, rhs)]
    pivots = row_reduce_fractions(a, ncols)
    solutions = []
    for j in range(ncols, len(a[0])):
        x = [Fraction(0)] * ncols
        for row_idx, c in enumerate(pivots):
            x[c] = a[row_idx][j]
        solutions.append(None if any(row[j] != 0 for row in a[len(pivots):]) else x)
    return solutions


def _checked(targets, basis: PrimarySet):
    """The targets, each one checked to be a polynomial as it is drawn and
    the basis right after the first, so that the first failure is the one
    a target-by-target decomposition would meet."""
    for i, target in enumerate(targets):
        if not target.is_polynomial:
            raise NonPolynomialInputError(f"target is not polynomial: {target}")
        if i == 0:
            for name, e in zip(basis.names, basis.exprs):
                if not e.is_polynomial:
                    raise NonPolynomialInputError(
                        f"basis element {name} is not polynomial: {e}")
        yield target


def decompose_linear(targets, basis: PrimarySet) -> list[Decomposition | None]:
    """Write each target as sum(lambda_b * g_b) + lambda_0, exactly, in
    one elimination for all targets.  None for a target with no exact
    rational combination; the caller records it as the residual.  The
    targets may be any iterable: each one is drawn and checked before
    the next is drawn."""
    targets = list(_checked(targets, basis))
    k = len(basis)
    polys = [e.num for e in basis.exprs] + [Polynomial.constant(basis.exprs[0].ps.nsyms, 1)]
    # The constant column gives the table at least one monomial row.
    table = coefficient_rows(polys + [t.num for t in targets])
    solutions = _solve_exact([row[:k + 1] for row in table], [row[k + 1:] for row in table])
    return [None if x is None else Decomposition(tuple(x[:k]), x[k]) for x in solutions]


def _reduced(e: RationalExpr, rules: tuple[Polynomial, ...] | None) -> RationalExpr:
    return e.reduce_mod(rules) if rules else e


def closure_analysis(primaries: PrimarySet, space,
                     on_shell_rules: tuple[Polynomial, ...] | None = None) -> AlgebraReport:
    """Decompose every pairwise bracket (and {g_a, H} when a Hamiltonian
    is declared), taken in space, into structure constants plus central
    charges."""
    basis = PrimarySet(primaries.names,
                       tuple(_reduced(e, on_shell_rules) for e in primaries.exprs))
    k = len(primaries)
    zero = Fraction(0)
    c = [[(zero,) * k] * k for _ in range(k)]
    z = [[zero] * k for _ in range(k)]
    h = h_const = None
    # {g_a, H} is column k of the table when a Hamiltonian is declared.
    items = list(primaries.exprs)
    keys = [(a, b) for a in range(k) for b in range(a + 1, k)]
    if primaries.hamiltonian is not None:
        items.append(primaries.hamiltonian)
        keys += [(a, k) for a in range(k)]
        h, h_const = [None] * k, [None] * k
    table = bracket_table(items, space)
    # Each bracket is reduced only when decompose_linear has checked the
    # one before, so that the first failure is the one a bracket-by-bracket
    # decomposition would meet.
    brackets = []

    def reduced():
        for a, b in keys:
            brackets.append(_reduced(table[a][b], on_shell_rules))
            yield brackets[-1]

    decompositions = decompose_linear(reduced(), basis)
    residuals = {}
    notes = []
    for (a, b), bracket, dec in zip(keys, brackets, decompositions):
        if dec is None and b == k:
            residuals[(a, "H")] = bracket
        elif dec is None:
            residuals[(a, b)] = bracket
            residuals[(b, a)] = -bracket
            c[a][b] = c[b][a] = z[a][b] = z[b][a] = None
        elif b == k:
            h[a], h_const[a] = dec.coefficients, dec.constant
            if dec.constant != 0:
                notes.append(
                    f"bracket of {primaries.names[a]} with the Hamiltonian "
                    f"carries constant term {dec.constant}; recorded in the "
                    "constant column rather than treated as closure failure")
        else:
            c[a][b], c[b][a] = dec.coefficients, tuple(-v for v in dec.coefficients)
            z[a][b], z[b][a] = dec.constant, -dec.constant

    return AlgebraReport(
        mode="dirac" if isinstance(space, DiracContext) else "poisson",
        names=primaries.names,
        closed=not residuals,
        c=tuple(map(tuple, c)),
        z=tuple(map(tuple, z)),
        h=tuple(h) if h is not None else None,
        h_const=tuple(h_const) if h_const is not None else None,
        residuals=residuals,
        notes=tuple(notes),
    )


def finite_dim_obstruction(report: AlgebraReport) -> Verdict:
    """Trace argument on a closed algebra.

    A nonzero central charge z_ab means the operator image of
    {g_a, g_b} is a nonzero multiple of the identity; in dimension D the
    left side has trace 0 and the right side trace proportional to D.
    """
    if not report.closed:
        raise ReportNotClosedError("obstruction logic requires a closed algebra")
    k = len(report.names)
    for a in range(k):
        for b in range(k):
            if report.z[a][b] != 0:
                return Verdict(
                    kind="infinite_dimensional",
                    witness={"pair": (report.names[a], report.names[b]),
                             "central_charge": report.z[a][b]},
                    explanation=(
                        f"{{{report.names[a]}, {report.names[b]}}} contains the "
                        f"constant {report.z[a][b]}; its operator image is a nonzero "
                        "multiple of the identity, whose trace in a finite dimension D "
                        "would be proportional to D, while every commutator is "
                        "traceless. No finite-dimensional realization exists."),
                )
    return Verdict(
        kind="no_obstruction_detected",
        witness=None,
        explanation=(
            "All central charges vanish, so the trace argument does not apply. "
            "This is a necessary condition only: the algebra may still fail to "
            "admit a finite-dimensional realization for other reasons. Algebras "
            "representable by traceless matrices (e.g. angular momentum / spin) "
            "do admit finite-dimensional operators."),
    )


def lemma_verdict(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Verdict:
    """Machine check of the headline result: any second-class system
    with m < n carries the central Dirac bracket sum(x_i, p_i) = n - m
    and therefore has no finite-dimensional quantization."""
    classification = classify_constraints(ps, constraints, cfg)
    if classification.verdict != "second_class":
        raise NotSecondClassError(
            "constraint set is degenerate; the obstruction analysis needs an "
            "invertible constraint bracket matrix")
    # With m = n the verdict needs no trace; skip its cost.
    ti = trace_identity(classification.context) if classification.dof_pairs else None
    return trace_verdict(classification, ti)


def trace_verdict(classification: Classification, ti: TraceIdentity | None) -> Verdict:
    """The verdict of lemma_verdict from a second-class classification
    and the trace identity of its context, both already computed; the
    trace may be None when m = n."""
    if classification.dof_pairs == 0:
        return Verdict(
            kind="trivial_system",
            witness=None,
            explanation=(
                f"m = n = {classification.m}: every canonical pair is constrained away, "
                "leaving no dynamical degrees of freedom; there is nothing to "
                "quantize."),
        )
    if not ti.holds:
        raise AssertionError(
            f"trace identity violated: got {ti.value}, expected {ti.expected}")
    return Verdict(
        kind="infinite_dimensional",
        witness={"trace_value": ti.expected, "trace_expression": ti.value_text},
        explanation=(
            f"The sum of Dirac brackets of all canonical pairs equals "
            f"n - m = {ti.expected} != 0 identically. Its operator image is "
            f"{ti.expected} times the identity; were the Hilbert space of "
            "finite dimension D, taking the trace of the corresponding sum of "
            f"commutators would force 0 = {ti.expected} * D, a contradiction. "
            "The Hilbert space is infinite dimensional."),
    )
