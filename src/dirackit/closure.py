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
from itertools import chain

from .analysis import (
    Classification,
    SamplerConfig,
    TraceIdentity,
    classify_constraints,
    trace_identity,
)
from .brackets import DiracContext, bracket_table, second_class
from .errors import NonPolynomialInputError, ReportNotClosedError
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
        solutions.append(None if any(row[j] for row in a[len(pivots):]) else x)
    return solutions


def _checked(targets, basis: PrimarySet):
    """The targets, each one checked to be a polynomial as it is drawn,
    and the basis right after the first or, when none is drawn, at the
    end, so that the first failure is the one a target-by-target
    decomposition would meet.  None marks the end."""
    for i, target in enumerate(chain(targets, [None])):
        if target is not None and not target.is_polynomial:
            raise NonPolynomialInputError(f"target is not polynomial: {target}")
        if i == 0:
            for name, e in zip(basis.names, basis.exprs):
                if not e.is_polynomial:
                    raise NonPolynomialInputError(
                        f"basis element {name} is not polynomial: {e}")
        if target is not None:
            yield target


def decompose_linear(targets, basis: PrimarySet) -> list[Decomposition | None]:
    """Write each target as sum(lambda_b * g_b) + lambda_0, exactly, in
    one elimination for all targets.  None for a target with no exact
    rational combination; the caller records it as the residual.  The
    targets may be any iterable: each one is drawn and checked before
    the next is drawn.  An exact zero is the zero vector with constant 0,
    which the elimination gives it too, since free unknowns are set to
    zero; so only the other targets take a column, and with none no
    elimination runs."""
    targets = list(_checked(targets, basis))
    k = len(basis)
    columns = [t.num for t in targets if not t.is_zero]
    solutions = iter(())
    if columns:
        polys = [e.num for e in basis.exprs] + [Polynomial.constant(basis.exprs[0].ps.nsyms, 1)]
        # The constant column gives the table at least one monomial row.
        table = coefficient_rows(polys + columns)
        solutions = iter(_solve_exact([row[:k + 1] for row in table],
                                      [row[k + 1:] for row in table]))
    zero = [Fraction(0)] * (k + 1)
    return [None if x is None else Decomposition(tuple(x[:k]), x[k])
            for x in (zero if t.is_zero else next(solutions) for t in targets)]


def _reduced(e: RationalExpr, rules: tuple[Polynomial, ...] | None) -> RationalExpr:
    """e's on-shell remainder; an exact zero is its own."""
    return e.reduce_mod(rules) if rules and not e.is_zero else e


def closure_analysis(primaries: PrimarySet, space,
                     on_shell_rules: tuple[Polynomial, ...] | None = None) -> AlgebraReport:
    """Decompose every pairwise bracket (and {g_a, H} when a Hamiltonian
    is declared), taken in space, into structure constants plus central
    charges.  An exactly zero bracket is not reduced on the shell, takes
    no column of the elimination and is not negated into the lower
    triangle: its entries stay zero."""
    basis = PrimarySet(primaries.names,
                       tuple(_reduced(e, on_shell_rules) for e in primaries.exprs))
    k = len(primaries)
    zero = Fraction(0)
    zeros = (zero,) * k  # every zero row of c is this one tuple
    c = [[zeros] * k for _ in range(k)]
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
            brackets.append(_reduced(table[a, b], on_shell_rules))
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
        elif not bracket.is_zero:  # a zero keeps the zero entries c and z start with
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
    """Trace argument on a closed algebra, decided by the Fredholm
    alternative.

    Each row r of the report, a pair {g_a, g_b} with a < b and, with a
    Hamiltonian, each {g_a, H}, reads sum_k C_rk g_k + z_r.  In a finite
    dimension D every commutator is traceless, so the operator images
    give sum_k C_rk tr(g_k) + z_r D = 0 for each r.  A lambda with
    lambda^T C = 0 and lambda^T z != 0 then forces (lambda^T z) D = 0:
    no finite-dimensional realization exists.  Otherwise z = C t for
    some t, and the shift g_k -> g_k + t_k removes every constant (the
    central term is a trivial extension), so the argument does not
    apply.  One `row_reduce_fractions` of [C | z | I] finds both: a row
    whose C part reduces to zero holds lambda in its I part and
    lambda^T z in its z entry, and the pivot rows hold t.  A row with a
    zero C and a nonzero z is its own witness, the first such is named.
    """
    if not report.closed:
        raise ReportNotClosedError("obstruction logic requires a closed algebra")
    names, k = report.names, len(report.names)
    rows = [((names[a], names[b]), report.c[a][b], report.z[a][b])
            for a in range(k) for b in range(a + 1, k)]
    if report.h is not None:
        rows += [((names[a], "H"), report.h[a], report.h_const[a]) for a in range(k)]
    for (a, b), c, z in rows:
        if z and not any(c):
            return _obstruction({"pair": (a, b), "central_charge": z},
                                f"{{{a}, {b}}} contains the constant {z}")
    if not any(z for _, _, z in rows):
        return _no_obstruction("All central charges vanish, so the trace argument does not apply.")
    zero, one = Fraction(0), Fraction(1)
    table = [list(c) + [z] + [one if i == r else zero for i in range(len(rows))]
             for r, (_, c, z) in enumerate(rows)]
    pivots = row_reduce_fractions(table, k)
    for row in table[len(pivots):]:
        if row[k]:
            combination = {f"{{{a},{b}}}": v for ((a, b), _, _), v in zip(rows, row[k + 1:]) if v}
            terms = " + ".join(f"{v}*{label}" for label, v in combination.items())
            return _obstruction({"combination": combination, "central_charge": row[k]},
                                f"The generator parts cancel in {terms}, which is the "
                                f"constant {row[k]}")
    shift = ", ".join(f"{names[col]} -> {names[col]} {'-' if row[k] < 0 else '+'} {abs(row[k])}"
                      for col, row in zip(pivots, table) if row[k])
    return _no_obstruction(
        f"The shift {shift} removes every constant: the central charges are a trivial "
        "central extension, so the trace argument does not apply.")


def _obstruction(witness: dict, statement: str) -> Verdict:
    return Verdict(
        kind="infinite_dimensional",
        witness=witness,
        explanation=(
            f"{statement}; its operator image is a nonzero multiple of the identity, "
            "whose trace in a finite dimension D would be proportional to D, while every "
            "commutator is traceless. No finite-dimensional realization exists."),
    )


def _no_obstruction(reason: str) -> Verdict:
    return Verdict(
        kind="no_obstruction_detected",
        witness=None,
        explanation=(
            f"{reason} This is a necessary condition only: the algebra may still fail to "
            "admit a finite-dimensional realization for other reasons. Algebras "
            "representable by traceless matrices (e.g. angular momentum / spin) do admit "
            "finite-dimensional operators."),
    )


def lemma_verdict(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Verdict:
    """Machine check of the headline result: any second-class system
    with m < n carries the central Dirac bracket sum(x_i, p_i) = n - m
    and therefore has no finite-dimensional quantization."""
    classification = classify_constraints(ps, constraints, cfg)
    context = second_class(classification.context, classification.on_shell_rank)
    # With m = n the verdict needs no trace; skip its cost.
    ti = trace_identity(context) if classification.dof_pairs else None
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
        witness={"trace_value": ti.expected, "trace_expression": str(ti.value)},
        explanation=(
            f"The sum of Dirac brackets of all canonical pairs equals "
            f"n - m = {ti.expected} != 0 identically. Its operator image is "
            f"{ti.expected} times the identity; were the Hilbert space of "
            "finite dimension D, taking the trace of the corresponding sum of "
            f"commutators would force 0 = {ti.expected} * D, a contradiction. "
            "The Hilbert space is infinite dimensional."),
    )
