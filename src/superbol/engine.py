"""Exhaustive evaluation of multilinear identities over homogeneous basis tuples.

For an identity in n variables over a d-dimensional space the checker decides
all d**n assignments of basis vectors to variables, and reports the first
counterexample of a failing identity in lexicographic basis order, so it is
reproducible.  The reported tuple count is always d**n.

:func:`check` runs a kernel that each :class:`StructureBinding` compiles for
itself on first use and keeps.  Each proper sub-term of a term becomes a
node holding a table of its nonzero values only, built once by joining its
argument tables through an index of the tensor's support (by left index for
a binary product, by (i, j) pair for a ternary one) and through an index of
the argument tables by component; sub-terms equal up to renaming share one
node.  The top node of each term is not kept: it is computed in chunks, one
per basis index of the identity's first variable, and the chunks are visited
in order, so a failing check stops at the first chunk with a nonzero
residue and reports that chunk's least failing tuple.  A tuple outside the
support of every term has residue zero, so visiting only the supports
decides every one of the d**n tuples and the count stays exact.

Arithmetic is integer.  Tensors and twist columns are stored as integers
times the lcm of their denominators; a node's values are its true values
times its scale, the product of its factors' scales; each identity gets one
common scale S, and each term one integer weight, coefficient * S / scale.
The residue is divided by S only when an :class:`Element` is built.
:func:`tabulate` reads the same chunks and returns the nonzero values
instead of a verdict; every derived product of the toolkit (supercommutator,
Jordan product, the Bol and triple ternaries) is a term sum built this way.

Checking only homogeneous basis tuples is sound and complete here because
every identity :func:`dsl.build_identity` admits, parsed or built, is
multilinear over a characteristic-0 scalar field; :func:`evaluate_on_elements`
provides the independent general-element evaluation used to cross-check that
claim in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Sequence, Union

from .core import Element, EvenMap, SuperSpace, apply_map, power
from .dsl import ANGLE, ASSOC, BRACES, BRACKET, JORDAN, STAR, Call, Expr, Identity, SignPoly, Twist, Var
from .reports import CheckReport
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

    The binding also holds the kernel behind :func:`check`, compiled when a
    check first needs it: each bound structure as integer constants indexed
    by their support, each non-identity twist power as integer sparse
    columns read from the power's nonzero entries (an identity twist
    compiles to no powers at all), and one node per sub-term, whose table of
    nonzero values is joined once and shared by every sub-term equal to it up
    to renaming, across all identities checked on this binding.  A new
    binding starts with empty tables, so it never sees values of an old one.
    """

    space: SuperSpace
    ops: Mapping[str, OpStructure]
    twist: EvenMap
    _tensors: dict[str, tuple[int, dict]] = field(init=False, repr=False, compare=False, default_factory=dict)
    _columns: dict[int, Optional[tuple[int, list[dict[int, int]]]]] = field(
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

    def _tensor(self, symbol: str) -> tuple[int, dict]:
        """The bound structure as ``(scale, support)``: its constants times
        ``scale``, the lcm of their denominators, indexed for the joins of
        :class:`_Binary` and :class:`_Ternary`."""
        if symbol not in self._tensors:
            structure = self.op(symbol)
            constants = {key: value.coords for key, value in structure.constants.items() if value.coords}
            scale = math.lcm(*(c.denominator for coords in constants.values() for c in coords.values()))
            support: dict = {}
            for key, coords in constants.items():
                row = _integral(coords, scale)
                if structure.arity == 2:
                    support.setdefault(key[0], []).append((key[1], row))
                else:
                    support.setdefault(key[0], {}).setdefault(key[1], []).append((key[2], row))
            if structure.arity == 3:
                support = {i: list(pairs.items()) for i, pairs in support.items()}
            self._tensors[symbol] = scale, support
        return self._tensors[symbol]

    def _twist_columns(self, n: int) -> Optional[tuple[int, list[dict[int, int]]]]:
        """The n-th twist power as ``(scale, columns)``, its sparse columns
        times ``scale``; None for the identity map.  An identity twist
        compiles to None at once, without building any power."""
        if n not in self._columns:
            matrix = self.twist if self.twist.is_identity() else power(self.twist, n)
            scale = math.lcm(*(c.denominator for column in matrix.columns for c in column.values()))
            self._columns[n] = None if matrix.is_identity() else (
                scale, [_integral(column, scale) for column in matrix.columns]
            )
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
            return arg if columns is None else _Twisted(*columns, arg)
        if expr.op == ASSOC:
            a, b, c = expr.args
            return _Difference(
                self.node(Call(STAR, (Call(STAR, (a, b)), Twist(1, c))))[0],
                self.node(Call(STAR, (Twist(1, a), Call(STAR, (b, c)))))[0],
            )
        args = [self.node(arg)[0] for arg in expr.args]
        kind = _Ternary if expr.op in (BRACES, ANGLE) else _Binary
        return kind(*self._tensor(expr.op), args)


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
# Vectors are plain {basis index: int} dicts without zero entries.  A node's
# vectors are its true values times the node's integer ``scale``, and an
# identity's residues are true residues times one common scale, divided out
# only when an Element is built.  None of this code, nor the binding methods
# that build it, is shared with the element-level evaluation above, which
# stays the independent oracle.


def _integral(coords: Mapping[int, Fraction], scale: int) -> dict[int, int]:
    """``scale`` times ``coords``; ``scale`` is a multiple of every denominator."""
    return {target: c.numerator * (scale // c.denominator) for target, c in coords.items()}


def _nonzero(part: dict, prefix: tuple = (), out: Optional[dict] = None) -> dict:
    """``out`` (a new dict by default) with each nonzero vector of ``part``
    added under ``prefix`` + its key, its zero entries dropped."""
    out = {} if out is None else out
    for key, vector in part.items():
        if 0 in vector.values():
            vector = {target: c for target, c in vector.items() if c}
            if not vector:
                continue
        out[prefix + key] = vector
    return out


def _components(rows: Mapping[tuple, dict[int, int]]) -> dict[int, list[tuple[tuple, int]]]:
    """``rows`` indexed by component: basis index -> [(key, coefficient)]."""
    index: dict[int, list[tuple[tuple, int]]] = {}
    for key, vector in rows.items():
        for target, c in vector.items():
            index.setdefault(target, []).append((key, c))
    return index


class _Node:
    """A compiled sub-term, keyed by the tuple of basis indices of its own
    ``width`` variables in traversal order.

    ``rows(fix)`` returns the sub-term's nonzero values, restricted to the keys
    with basis index ``fix[1]`` at position ``fix[0]`` unless ``fix`` is None;
    ``table()`` joins all of them once and keeps them.  A product reads its
    arguments through their kept tables, while a twist or an associator passes
    ``fix`` on to its arguments, so the top node of a term is computed afresh,
    one restriction at a time, and never kept on its own account.
    """

    __slots__ = ("scale", "width", "_table", "_components", "_slices")

    def __init__(self, scale: int, width: int) -> None:
        self.scale, self.width = scale, width
        self._table: Optional[dict[tuple, dict[int, int]]] = None
        self._components: Optional[dict[int, list[tuple[tuple, int]]]] = None
        self._slices: dict[int, dict[int, dict]] = {}

    def table(self) -> dict[tuple, dict[int, int]]:
        if self._table is None:
            self._table = self._join(None)
        return self._table

    def components(self) -> dict[int, list[tuple[tuple, int]]]:
        if self._components is None:
            self._components = _components(self.table())
        return self._components

    def at(self, position: int, index: int) -> dict[tuple, dict[int, int]]:
        """The rows of the kept table with ``index`` at ``position``."""
        slices = self._slices.get(position)
        if slices is None:
            slices = self._slices[position] = {}
            for key, vector in self.table().items():
                slices.setdefault(key[position], {})[key] = vector
        return slices.get(index, {})

    def rows(self, fix: Optional[tuple[int, int]]) -> dict[tuple, dict[int, int]]:
        if self._table is None:
            return self._join(fix)
        return self._table if fix is None else self.at(*fix)

    def _join(self, fix: Optional[tuple[int, int]]) -> dict[tuple, dict[int, int]]:
        raise NotImplementedError


class _Leaf(_Node):
    """A variable: the basis vector it is bound to."""

    __slots__ = ()

    def __init__(self, dim: int) -> None:
        super().__init__(1, 1)
        self._table = {(i,): {i: 1} for i in range(dim)}


class _Twisted(_Node):
    """A non-identity twist power, stored as integer sparse columns, applied
    to a sub-term of the same key, which it reads through ``rows``."""

    __slots__ = ("columns", "arg")

    def __init__(self, scale: int, columns: list[dict[int, int]], arg: _Node) -> None:
        super().__init__(scale * arg.scale, arg.width)
        self.columns, self.arg = columns, arg

    def _join(self, fix):
        columns = self.columns
        out: dict[tuple, dict[int, int]] = {}
        for key, vector in self.arg.rows(fix).items():
            image: dict[int, int] = {}
            for source, c in vector.items():
                for target, entry in columns[source].items():
                    image[target] = image.get(target, 0) + c * entry
            out[key] = image
        return _nonzero(out)


class _Product(_Node):
    """A product of the bound tensor ``support`` with its argument nodes."""

    __slots__ = ("support", "args")

    def __init__(self, scale: int, support: dict, args: Sequence[_Node]) -> None:
        super().__init__(scale * math.prod(arg.scale for arg in args), sum(arg.width for arg in args))
        self.support, self.args = support, tuple(args)

    def _arguments(self, fix):
        """The first argument's rows and the component indexes of the others;
        the argument holding position ``fix[0]`` is restricted to ``fix[1]``."""
        first, *rest = self.args
        rows, indexes = first.table(), [arg.components() for arg in rest]
        if fix is not None:
            position, basis = fix
            for n, arg in enumerate(self.args):
                if position < arg.width:
                    if n:
                        indexes[n - 1] = _components(arg.at(position, basis))
                    else:
                        rows = arg.at(position, basis)
                    break
                position -= arg.width
        return rows, indexes


class _Binary(_Product):
    """``support`` indexes the tensor by left argument: i -> [(j, row)]."""

    __slots__ = ()

    def _join(self, fix):
        lefts, (rights,) = self._arguments(fix)
        support = self.support
        out: dict[tuple, dict[int, int]] = {}
        for kl, a in lefts.items():
            part: dict[tuple, dict[int, int]] = {}
            for i, ca in a.items():
                for j, row in support.get(i, ()):
                    for kr, cb in rights.get(j, ()):
                        c = ca * cb
                        acc = part.get(kr)
                        if acc is None:
                            part[kr] = {target: c * entry for target, entry in row.items()}
                        else:
                            for target, entry in row.items():
                                acc[target] = acc.get(target, 0) + c * entry
            _nonzero(part, kl, out)
        return out


class _Ternary(_Product):
    """``support`` indexes the tensor by (i, j) pair: i -> [(j, [(k, row)])]."""

    __slots__ = ()

    def _join(self, fix):
        firsts, (seconds, thirds) = self._arguments(fix)
        support = self.support
        out: dict[tuple, dict[int, int]] = {}
        for ka, a in firsts.items():
            part: dict[tuple, dict[int, int]] = {}
            for i, ca in a.items():
                for j, pairs in support.get(i, ()):
                    bs = seconds.get(j)
                    if bs is None:
                        continue
                    for k, row in pairs:
                        cs = thirds.get(k)
                        if cs is None:
                            continue
                        for kb, cb in bs:
                            cab = ca * cb
                            for kc, cc in cs:
                                c = cab * cc
                                key = kb + kc
                                acc = part.get(key)
                                if acc is None:
                                    part[key] = {target: c * entry for target, entry in row.items()}
                                else:
                                    for target, entry in row.items():
                                        acc[target] = acc.get(target, 0) + c * entry
            _nonzero(part, ka, out)
        return out


class _Difference(_Node):
    """``as(a,b,c)``: ``((a*b)*A(c)) - (A(a)*(b*c))``; both sides read the same
    key and are brought to the lcm of their scales."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: _Node, minus: _Node) -> None:
        super().__init__(math.lcm(plus.scale, minus.scale), plus.width)
        self.plus, self.minus = plus, minus

    def _join(self, fix):
        up, down = self.scale // self.plus.scale, self.scale // self.minus.scale
        out = {key: {target: up * c for target, c in vector.items()} for key, vector in self.plus.rows(fix).items()}
        for key, vector in self.minus.rows(fix).items():
            acc = out.setdefault(key, {})
            for target, c in vector.items():
                acc[target] = acc.get(target, 0) - down * c
        return _nonzero(out)


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


def _picker(positions: Sequence[int]) -> itemgetter:
    """A getter of the tuple ``(key[p] for p in positions)``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


class _Weights(dict):
    """A term's signed integer weight, keyed by the basis indices its sign
    exponent reads (in sorted variable order); the sign of each parity
    pattern is evaluated once, on first use."""

    def __init__(self, weight: int, sign: SignPoly, names: Sequence[str], parities: Sequence[int]) -> None:
        super().__init__()
        self.weight, self.sign, self.names, self.parities = weight, sign, names, parities
        self.patterns: dict[tuple[int, ...], int] = {}

    def __missing__(self, indices: tuple[int, ...]) -> int:
        pattern = tuple([self.parities[i] for i in indices])
        value = self.patterns.get(pattern)
        if value is None:
            value = self.patterns[pattern] = self.weight * self.sign.sign(dict(zip(self.names, pattern)))
        self[indices] = value
        return value


def _compile(binding: StructureBinding, identity: Identity) -> tuple[int, list[tuple]]:
    """The identity's common scale S and, per term, its node, the key position
    of the identity's first variable, the getters of the identity-ordered
    tuple and of the sign's indices, and the term's weights.

    A term's weight is ``coefficient * S / node.scale``, an integer because S
    is the lcm of every ``node.scale * coefficient.denominator``."""
    variables, parities = identity.variables, binding.space.parities
    nodes = [binding.node(term.expr) for term in identity.terms]
    scale = math.lcm(*(node.scale * term.coefficient.denominator for term, (node, _) in zip(identity.terms, nodes)))
    terms = []
    for term, (node, order) in zip(identity.terms, nodes):
        coefficient = term.coefficient
        weight = coefficient.numerator * (scale // (node.scale * coefficient.denominator))
        names = sorted(term.sign.variables)
        terms.append((
            node,
            order.index(variables[0]),
            _picker([order.index(var) for var in variables]),
            _picker([order.index(name) for name in names]),
            _Weights(weight, term.sign, names, parities),
        ))
    return scale, terms


def _chunk(terms: list[tuple], index: int) -> dict[tuple[int, ...], dict[int, int]]:
    """The scaled residues of every tuple whose first variable is basis vector
    ``index`` and at which some term is nonzero; they may hold zero entries."""
    residue: dict[tuple[int, ...], dict[int, int]] = {}
    for node, position, reorder, signed, weights in terms:
        for key, vector in node.rows((position, index)).items():
            w = weights[signed(key)]
            indices = reorder(key)
            acc = residue.get(indices)
            if acc is None:
                residue[indices] = {target: w * c for target, c in vector.items()}
            else:
                for target, c in vector.items():
                    acc[target] = acc.get(target, 0) + w * c
    return residue


def _element(space: SuperSpace, vector: Mapping[int, int], scale: int) -> Element:
    return Element(space, {target: Fraction(c, scale) for target, c in vector.items() if c})


def check(binding: StructureBinding, identity: Identity) -> CheckReport:
    """Evaluate every term on every homogeneous basis tuple; exact verdict.

    The residue at each tuple is the signed, coefficient-weighted sum of the
    identity's terms; the identity passes iff the residue is the zero element
    at all tuples.  The counterexample reported for a failing identity is the
    lexicographically first failing tuple in basis order: the least failing
    tuple of the first chunk that has one.  Checks on one binding share its
    compiled tensors and sub-term tables.
    """
    space = binding.space
    total = space.dim ** identity.arity
    scale, terms = _compile(binding, identity)
    for index in range(space.dim):
        residue = _chunk(terms, index)
        failing = [indices for indices, vector in residue.items() if any(vector.values())]
        if failing:
            indices = min(failing)
            return CheckReport(
                name=identity.name,
                passed=False,
                tuples_checked=total,
                counterexample=tuple(space.names[i] for i in indices),
                residue=_element(space, residue[indices], scale),
            )
    return CheckReport(name=identity.name, passed=True, tuples_checked=total)


def tabulate(binding: StructureBinding, identity: Identity) -> dict[tuple[int, ...], Element]:
    """The nonzero values of the identity's term sum, keyed by basis-index
    tuple in the order of ``identity.variables``, in lexicographic order: the
    structure constants of the product the term sum defines."""
    space = binding.space
    scale, terms = _compile(binding, identity)
    table = {}
    for index in range(space.dim):
        residue = _chunk(terms, index)
        for indices in sorted(residue):
            if any(residue[indices].values()):
                table[indices] = _element(space, residue[indices], scale)
    return table


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
