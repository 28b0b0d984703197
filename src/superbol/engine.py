"""Exhaustive evaluation of multilinear identities over homogeneous basis tuples.

For an identity in n variables over a d-dimensional space the checker walks
all d**n assignments of basis vectors to variables in lexicographic basis
order, so the first counterexample of a failing identity is reproducible.
Every tuple is evaluated (no short-circuit), so the reported tuple count is
the full enumeration whatever the verdict.

Checking only homogeneous basis tuples is sound and complete here because
every identity :func:`dsl.build_identity` admits, parsed or built, is
multilinear over a characteristic-0 scalar field; :func:`evaluate_on_elements`
provides the independent general-element evaluation used to cross-check that
claim in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .core import Element, EvenMap, SuperSpace, apply_map, power
from .dsl import ANGLE, ASSOC, BRACES, BRACKET, JORDAN, STAR, Call, Expr, Identity, Twist, Var
from .reports import CheckReport, SuiteReport
from .structures import BinaryStructure, TernaryStructure, bin_mul, tern_mul

OpStructure = Union[BinaryStructure, TernaryStructure]


class UnboundSymbolError(KeyError):
    """An identity uses an operation symbol the binding does not supply."""


@dataclass(frozen=True)
class StructureBinding:
    """Assignment of the DSL's operation symbols to concrete structures.

    ``ops`` maps a symbol ("*", "[]", "o", "{}", "<>") to a binary or ternary
    structure-constant model; ``twist`` interprets the twist symbol A.  All
    bound structures must share one superspace.
    """

    space: SuperSpace
    ops: Mapping[str, OpStructure]
    twist: EvenMap

    def __post_init__(self) -> None:
        for symbol, structure in self.ops.items():
            if structure.space != self.space:
                raise ValueError(f"structure bound to {symbol!r} lives in a different space")
            expected = BinaryStructure if symbol in (STAR, BRACKET, JORDAN) else TernaryStructure
            if not isinstance(structure, expected):
                raise ValueError(f"symbol {symbol!r} needs a {expected.__name__}")
        if self.twist.space != self.space:
            raise ValueError("twist lives in a different space")
        object.__setattr__(self, "ops", dict(self.ops))

    def op(self, symbol: str) -> OpStructure:
        try:
            return self.ops[symbol]
        except KeyError:
            raise UnboundSymbolError(f"no structure bound to operation symbol {symbol!r}") from None


def _twist_powers(binding: StructureBinding, identity: Identity) -> dict[int, EvenMap]:
    return {n: power(binding.twist, n) for n in range(identity.max_twist_power() + 1)}


def _evaluate_expr(expr: Expr, env: Mapping[str, Element], binding: StructureBinding, powers: Mapping[int, EvenMap]) -> Element:
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Twist):
        return apply_map(powers[expr.power], _evaluate_expr(expr.arg, env, binding, powers))
    if expr.op == ASSOC:
        star = binding.op(STAR)
        a, b, c = (_evaluate_expr(arg, env, binding, powers) for arg in expr.args)
        one = powers[1]
        return bin_mul(star, bin_mul(star, a, b), apply_map(one, c)) - bin_mul(
            star, apply_map(one, a), bin_mul(star, b, c)
        )
    values = [_evaluate_expr(arg, env, binding, powers) for arg in expr.args]
    structure = binding.op(expr.op)
    if expr.op in (BRACES, ANGLE):
        return tern_mul(structure, *values)
    return bin_mul(structure, *values)


def _term_residue(identity: Identity, env: Mapping[str, Element], parities: Mapping[str, int], binding: StructureBinding, powers: Mapping[int, EvenMap]) -> Element:
    residue = binding.space.zero()
    for term in identity.terms:
        sign = term.sign.sign(parities)
        value = _evaluate_expr(term.expr, env, binding, powers)
        residue = residue + value.scale(term.coefficient * sign)
    return residue


def _first_failure(identity: Identity, binding: StructureBinding, powers):
    """Evaluate the identity on every basis tuple in lexicographic order; return
    the first failing (indices, residue), or None."""
    space = binding.space
    first_failure = None
    for indices in itertools.product(range(space.dim), repeat=identity.arity):
        env = {var: space.basis_vector(i) for var, i in zip(identity.variables, indices)}
        parities = {var: space.parity(i) for var, i in zip(identity.variables, indices)}
        residue = _term_residue(identity, env, parities, binding, powers)
        if first_failure is None and not residue.is_zero():
            first_failure = (indices, residue)
    return first_failure


def check(binding: StructureBinding, identity: Identity) -> CheckReport:
    """Evaluate every term on every homogeneous basis tuple; exact verdict.

    The residue at each tuple is the signed, coefficient-weighted sum of the
    identity's terms; the identity passes iff the residue is the zero element
    at all tuples.  The counterexample reported for a failing identity is the
    lexicographically first failing tuple in basis order.
    """
    for symbol in identity.symbols():
        binding.op(symbol)
    powers = _twist_powers(binding, identity)
    total = binding.space.dim ** identity.arity
    failure = _first_failure(identity, binding, powers)
    if failure is None:
        return CheckReport(name=identity.name, passed=True, tuples_checked=total)
    indices, residue = failure
    names = tuple(binding.space.names[i] for i in indices)
    return CheckReport(
        name=identity.name,
        passed=False,
        tuples_checked=total,
        counterexample=names,
        residue=residue,
    )


def check_identities(binding: StructureBinding, identities: Sequence[Identity], suite_name: str) -> SuiteReport:
    return SuiteReport(suite=suite_name, reports=tuple(check(binding, i) for i in identities))


def evaluate_on_elements(
    identity: Identity, binding: StructureBinding, assignment: Mapping[str, Element]
) -> Element:
    """Evaluate the identity on arbitrary (possibly mixed-parity) elements.

    Koszul signs are only defined for homogeneous arguments, so each assigned
    element is split into its even and odd components and the identity is
    expanded multilinearly over all component choices.  This is the
    independent oracle for the basis-tuple checker: a passing identity must
    return zero here for every assignment.
    """
    powers = _twist_powers(binding, identity)
    variables = identity.variables
    split = {var: assignment[var].homogeneous_parts() for var in variables}
    residue = binding.space.zero()
    for combo in itertools.product(*(split[var] or [(0, binding.space.zero())] for var in variables)):
        env = {var: part for var, (_, part) in zip(variables, combo)}
        parities = {var: parity for var, (parity, _) in zip(variables, combo)}
        residue = residue + _term_residue(identity, env, parities, binding, powers)
    return residue
