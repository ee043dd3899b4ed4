"""Affine analysis of array subscripts.

The dependence tests of :mod:`repro.frontend.dependence` need each
subscript in the canonical form ``coef * i + const + syms`` where ``i`` is
the loop variable, ``const`` is a rational constant and ``syms`` is a bag
of loop-invariant scalar names with rational coefficients (e.g. the ``k``
of ``x(i + k)``).  Subscripts that do not fit the form — indirect accesses
like ``x(ind(i))``, products of variants, … — analyse to ``None`` and the
dependence tests fall back to conservative edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.frontend.nodes import (
    ArrayRef,
    BinOp,
    Call,
    Expr,
    Num,
    UnaryOp,
    VarRef,
)


@dataclass(frozen=True)
class AffineForm:
    """``coef * loopvar + const + sum(sym_coefs[s] * s)``."""

    coef: Fraction
    const: Fraction
    sym_coefs: tuple[tuple[str, Fraction], ...] = ()

    def minus_const(self, other: "AffineForm") -> Fraction | None:
        """``self.const - other.const`` when the two forms differ only in
        their constant; ``None`` otherwise."""
        if self.coef != other.coef:
            return None
        if self.sym_coefs != other.sym_coefs:
            return None
        return self.const - other.const


def analyze_affine(
    expr: Expr,
    loop_var: str,
    invariants: frozenset[str],
) -> AffineForm | None:
    """Put *expr* into affine form, or return ``None`` if it has none.

    *invariants* is the set of scalar names whose value does not change
    inside the loop; they may appear linearly.  Any other variable, array
    reference or intrinsic call makes the expression non-affine.
    """
    terms = _collect(expr, loop_var, invariants)
    if terms is None:
        return None
    coef, const, syms = terms
    canonical = tuple(
        sorted((name, value) for name, value in syms.items() if value != 0)
    )
    return AffineForm(coef, const, canonical)


def _collect(
    expr: Expr,
    loop_var: str,
    invariants: frozenset[str],
) -> tuple[Fraction, Fraction, dict[str, Fraction]] | None:
    """Return ``(coef, const, sym_coefs)`` or ``None``."""
    if isinstance(expr, Num):
        return Fraction(0), expr.value, {}
    if isinstance(expr, VarRef):
        if expr.name == loop_var:
            return Fraction(1), Fraction(0), {}
        if expr.name in invariants:
            return Fraction(0), Fraction(0), {expr.name: Fraction(1)}
        return None
    if isinstance(expr, UnaryOp):
        inner = _collect(expr.operand, loop_var, invariants)
        if inner is None:
            return None
        coef, const, syms = inner
        return -coef, -const, {name: -v for name, v in syms.items()}
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            lhs = _collect(expr.lhs, loop_var, invariants)
            rhs = _collect(expr.rhs, loop_var, invariants)
            if lhs is None or rhs is None:
                return None
            sign = 1 if expr.op == "+" else -1
            syms = dict(lhs[2])
            for name, value in rhs[2].items():
                syms[name] = syms.get(name, Fraction(0)) + sign * value
            return (
                lhs[0] + sign * rhs[0],
                lhs[1] + sign * rhs[1],
                syms,
            )
        if expr.op == "*":
            lhs = _collect(expr.lhs, loop_var, invariants)
            rhs = _collect(expr.rhs, loop_var, invariants)
            if lhs is None or rhs is None:
                return None
            # One side must be a pure constant for the product to stay
            # affine.
            for const_side, other in ((lhs, rhs), (rhs, lhs)):
                coef, const, syms = const_side
                if coef == 0 and not syms:
                    scale = const
                    return (
                        other[0] * scale,
                        other[1] * scale,
                        {n: v * scale for n, v in other[2].items()},
                    )
            return None
        if expr.op == "/":
            lhs = _collect(expr.lhs, loop_var, invariants)
            rhs = _collect(expr.rhs, loop_var, invariants)
            if lhs is None or rhs is None:
                return None
            coef, const, syms = rhs
            if coef != 0 or syms or const == 0:
                return None
            scale = const
            return (
                lhs[0] / scale,
                lhs[1] / scale,
                {n: v / scale for n, v in lhs[2].items()},
            )
        return None
    if isinstance(expr, (ArrayRef, Call)):
        return None
    raise TypeError(f"unknown expression node: {expr!r}")
