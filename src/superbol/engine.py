"""Exhaustive evaluation of multilinear identities over homogeneous basis tuples.

For an identity in n variables over a d-dimensional space the checker walks
all d**n assignments of basis vectors to variables in lexicographic basis
order, so the first counterexample of a failing identity is reproducible.
Every tuple is evaluated (no short-circuit), so the reported tuple count is
the full enumeration whatever the verdict.

:func:`check` runs a kernel that each :class:`StructureBinding` compiles for
itself on first use and keeps: exact sparse tensors, Koszul signs tabulated
per parity pattern, and memoized value tables for every proper sub-term, so
each tuple only combines the top node of each term.  :func:`tabulate` walks the
same tuples and returns the nonzero values instead of a verdict; every
derived product of the toolkit (supercommutator, Jordan product, the Bol and
triple ternaries) is a term sum built this way.

Checking only homogeneous basis tuples is sound and complete here because
every identity :func:`dsl.build_identity` admits, parsed or built, is
multilinear over a characteristic-0 scalar field; :func:`evaluate_on_elements`
provides the independent general-element evaluation used to cross-check that
claim in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Sequence, Union

from .core import Element, EvenMap, SuperSpace, apply_map, power
from .dsl import ANGLE, ASSOC, BRACES, BRACKET, JORDAN, STAR, Call, Expr, Identity, Twist, Var, variable_counts
from .reports import CheckReport
from .structures import BinaryStructure, TernaryStructure, bin_mul, tern_mul

OpStructure = Union[BinaryStructure, TernaryStructure]
Scalar = Union[int, Fraction]


class UnboundSymbolError(KeyError):
    """An identity uses an operation symbol the binding does not supply."""


@dataclass(frozen=True)
class StructureBinding:
    """Assignment of the DSL's operation symbols to concrete structures.

    ``ops`` maps a symbol ("*", "[]", "o", "{}", "<>") to a binary or ternary
    structure-constant model; ``twist`` interprets the twist symbol A.  All
    bound structures must share one superspace.

    The binding also holds the kernel behind :func:`check`, compiled when a
    check first needs it: each bound structure as a plain
    ``{(i, j[, k]): {target: scalar}}`` dict, each non-identity twist power as
    a list of sparse columns, and one node per sub-term, whose value table is
    filled on demand and shared by every sub-term equal to it up to renaming,
    across all identities checked on this binding.  A new binding starts with
    empty tables, so it never sees values of an old one.
    """

    space: SuperSpace
    ops: Mapping[str, OpStructure]
    twist: EvenMap
    _tensors: dict[str, dict] = field(init=False, repr=False, compare=False, default_factory=dict)
    _columns: dict[int, Optional[list[dict[int, Scalar]]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _nodes: dict[Expr, _Node] = field(init=False, repr=False, compare=False, default_factory=dict)

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

    def _tensor(self, symbol: str) -> dict:
        if symbol not in self._tensors:
            constants = self.op(symbol).constants
            self._tensors[symbol] = {
                key: {target: _exact(c) for target, c in value.coords.items()}
                for key, value in constants.items()
            }
        return self._tensors[symbol]

    def _twist_columns(self, n: int) -> Optional[list[dict[int, Scalar]]]:
        """Sparse columns of the n-th twist power; None for the identity map."""
        if n not in self._columns:
            matrix = power(self.twist, n)
            self._columns[n] = None if matrix.is_identity() else [
                {target: _exact(row[source]) for target, row in enumerate(matrix.matrix) if row[source]}
                for source in range(self.space.dim)
            ]
        return self._columns[n]

    def node(self, expr: Expr) -> tuple[_Node, tuple[str, ...]]:
        """The compiled node of ``expr`` and the variables of its key, in order."""
        order: dict[str, str] = {}
        canonical = _canonical(expr, order)
        if canonical not in self._nodes:
            self._nodes[canonical] = self._build(canonical)
        return self._nodes[canonical], tuple(order)

    def _build(self, expr: Expr) -> _Node:
        if isinstance(expr, Var):
            return _Leaf(self.space.dim)
        if isinstance(expr, Twist):
            columns = self._twist_columns(expr.power)
            arg = self.node(expr.arg)[0]
            return arg if columns is None else _Twisted(columns, arg)
        if expr.op == ASSOC:
            a, b, c = expr.args
            return _Difference(
                self.node(Call(STAR, (Call(STAR, (a, b)), Twist(1, c))))[0],
                self.node(Call(STAR, (Twist(1, a), Call(STAR, (b, c)))))[0],
            )
        args = [self.node(arg)[0] for arg in expr.args]
        kind = _Ternary if expr.op in (BRACES, ANGLE) else _Binary
        return kind(self._tensor(expr.op), args, _child_keys(expr.args))


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


# -- the compiled kernel behind check -------------------------------------------
#
# Vectors are plain {basis index: scalar} dicts without zero entries; scalars
# are ints where exact and Fractions otherwise.  None of this code, nor the
# binding methods that build it, is shared with the element-level evaluation
# above, which stays the independent oracle.


def _exact(value: Fraction) -> Scalar:
    return value.numerator if value.denominator == 1 else value


class _Node:
    """A compiled sub-term, keyed by the basis indices of its own variables in
    traversal order (an int for one variable, a tuple otherwise).

    ``accumulate`` adds ``factor`` times the sub-term's value at ``key`` into
    ``out``; ``value`` returns that value and memoizes it in ``table``.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict = {}

    def value(self, key) -> dict[int, Scalar]:
        value = self.table.get(key)
        if value is None:
            out: dict[int, Scalar] = {}
            self.accumulate(key, 1, out)
            value = self.table[key] = {target: c for target, c in out.items() if c}
        return value

    def accumulate(self, key, factor: Scalar, out: dict[int, Scalar]) -> None:
        raise NotImplementedError


class _Leaf(_Node):
    """A variable: the basis vector it is bound to."""

    __slots__ = ()

    def __init__(self, dim: int) -> None:
        self.table = {i: {i: 1} for i in range(dim)}

    def accumulate(self, key, factor, out):
        out[key] = out.get(key, 0) + factor


class _Twisted(_Node):
    """A non-identity twist power, stored as sparse columns, applied to a sub-term."""

    __slots__ = ("columns", "arg")

    def __init__(self, columns: list[dict[int, Scalar]], arg: _Node) -> None:
        super().__init__()
        self.columns, self.arg = columns, arg

    def accumulate(self, key, factor, out):
        # The argument has the same key; it is evaluated, not memoized, so a
        # twisted top node never tabulates an argument over all the variables.
        value: dict[int, Scalar] = {}
        self.arg.accumulate(key, factor, value)
        columns = self.columns
        for source, c in value.items():
            for target, entry in columns[source].items():
                out[target] = out.get(target, 0) + c * entry


class _Binary(_Node):
    __slots__ = ("tensor", "left", "right", "left_key", "right_key")

    def __init__(self, tensor, args, keys) -> None:
        super().__init__()
        self.tensor = tensor
        self.left, self.right = args
        self.left_key, self.right_key = keys

    def accumulate(self, key, factor, out):
        a = self.left.value(self.left_key(key))
        if not a:
            return
        b = self.right.value(self.right_key(key))
        if not b:
            return
        tensor = self.tensor
        for i, ca in a.items():
            ca *= factor
            for j, cb in b.items():
                row = tensor.get((i, j))
                if row is not None:
                    c = ca * cb
                    for target, entry in row.items():
                        out[target] = out.get(target, 0) + c * entry


class _Ternary(_Node):
    __slots__ = ("tensor", "first", "second", "third", "first_key", "second_key", "third_key")

    def __init__(self, tensor, args, keys) -> None:
        super().__init__()
        self.tensor = tensor
        self.first, self.second, self.third = args
        self.first_key, self.second_key, self.third_key = keys

    def accumulate(self, key, factor, out):
        a = self.first.value(self.first_key(key))
        if not a:
            return
        b = self.second.value(self.second_key(key))
        if not b:
            return
        c = self.third.value(self.third_key(key))
        if not c:
            return
        tensor = self.tensor
        for i, ca in a.items():
            ca *= factor
            for j, cb in b.items():
                cab = ca * cb
                for k, cc in c.items():
                    row = tensor.get((i, j, k))
                    if row is not None:
                        coefficient = cab * cc
                        for target, entry in row.items():
                            out[target] = out.get(target, 0) + coefficient * entry


class _Difference(_Node):
    """``as(a,b,c)``: ``((a*b)*A(c)) - (A(a)*(b*c))``; both sides read the same key."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: _Node, minus: _Node) -> None:
        super().__init__()
        self.plus, self.minus = plus, minus

    def accumulate(self, key, factor, out):
        self.plus.accumulate(key, factor, out)
        self.minus.accumulate(key, -factor, out)


def _canonical(expr: Expr, order: dict[str, str]) -> Expr:
    """``expr`` with its variables renamed "0", "1", ... in traversal order.

    ``order`` collects the original names in that order.  Sub-terms equal up
    to renaming get one canonical form, hence one compiled node and table.
    """
    if isinstance(expr, Var):
        return Var(order.setdefault(expr.name, str(len(order))))
    if isinstance(expr, Twist):
        return Twist(expr.power, _canonical(expr.arg, order))
    return Call(expr.op, tuple(_canonical(arg, order) for arg in expr.args))


def _child_keys(args: Sequence[Expr]) -> list[itemgetter]:
    """Getters of each argument's key from the key of the call; the arguments'
    variables are consecutive runs of the call's traversal order."""
    keys, start = [], 0
    for arg in args:
        counts: dict[str, int] = {}
        variable_counts(arg, counts)
        width = len(counts)
        keys.append(itemgetter(start) if width == 1 else itemgetter(slice(start, start + width)))
        start += width
    return keys


def _walk(binding: StructureBinding, identity: Identity):
    """Yield ``(indices, residue)`` at every basis tuple in lexicographic order;
    the residue dict may hold zero entries."""
    space, variables = binding.space, identity.variables
    terms = []
    for term in identity.terms:
        node, order = binding.node(term.expr)
        factors = {
            parities: _exact(term.coefficient * term.sign.sign(dict(zip(variables, parities))))
            for parities in itertools.product((0, 1), repeat=identity.arity)
        }
        terms.append((node.accumulate, itemgetter(*map(variables.index, order)), factors))

    for indices, parities in zip(
        itertools.product(range(space.dim), repeat=identity.arity),
        itertools.product(space.parities, repeat=identity.arity),
    ):
        residue: dict[int, Scalar] = {}
        for accumulate, key, factors in terms:
            accumulate(key(indices), factors[parities], residue)
        yield indices, residue


def check(binding: StructureBinding, identity: Identity) -> CheckReport:
    """Evaluate every term on every homogeneous basis tuple; exact verdict.

    The residue at each tuple is the signed, coefficient-weighted sum of the
    identity's terms; the identity passes iff the residue is the zero element
    at all tuples.  The counterexample reported for a failing identity is the
    lexicographically first failing tuple in basis order.  Checks on one
    binding share its compiled tensors and sub-term tables.
    """
    space = binding.space
    failure = None
    for indices, residue in _walk(binding, identity):
        if failure is None and any(residue.values()):
            failure = (indices, residue)

    total = space.dim ** identity.arity
    if failure is None:
        return CheckReport(name=identity.name, passed=True, tuples_checked=total)
    indices, residue = failure
    return CheckReport(
        name=identity.name,
        passed=False,
        tuples_checked=total,
        counterexample=tuple(space.names[i] for i in indices),
        residue=Element(space, residue),
    )


def tabulate(binding: StructureBinding, identity: Identity) -> dict[tuple[int, ...], Element]:
    """The nonzero values of the identity's term sum, keyed by basis-index
    tuple in the order of ``identity.variables``: the structure constants of
    the product the term sum defines."""
    return {
        indices: Element(binding.space, residue)
        for indices, residue in _walk(binding, identity)
        if any(residue.values())
    }


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
