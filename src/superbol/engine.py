"""Exhaustive evaluation of multilinear identities over homogeneous basis tuples.

For an identity in n variables over a d-dimensional space the checker decides
all d**n assignments of basis vectors to variables, and reports the first
counterexample of a failing identity in lexicographic basis order, so it is
reproducible.  The reported tuple count is always d**n.

:func:`check` runs a compiled kernel, and compiles in two parts.  What
depends on the identity alone is compiled once per :class:`Identity`, on
its first check, and kept on it as its ``plan``: per term, the shape of its
expression, where its key positions land in the identity's variable order,
its coefficient and its table of signs.  A shape is a variable or a product
up to renaming of its variables, under the summed power of the twists
around it.  Shapes are
interned for the whole process, so equal ones, in any identities, are one
object, hashed by identity.  What depends on the structure is compiled once
per :class:`StructureBinding`, on first use, and kept by it, twists
included: each shape becomes a node of one of two kinds, holding a table of
its nonzero values only.  A leaf's table is its twist power's columns.  A
product's is built once by joining its argument tables through an index of
the tensor's support, whose rows are already mapped through the twist
power's columns, nested by every index but the last whatever the product's
arity, and through an index of the argument tables by component.  Sub-terms
equal up to renaming share one node.  Each check reads its terms' nodes by
one lookup each and derives only the common scale, the weights and the
integer codes.  A term's top node is never materialized: if its table is
kept it walks it into the residue, signed and weighted, and otherwise it
joins straight into it, by the join that builds kept tables at unit
weight.  How much residue is held at once follows the size of the check: a
check of at most ``_ONE_PASS`` = 9**4 tuples builds its whole residue in
one chunk; a larger one builds it in chunks, one per basis index of the
identity's first variable, so it never holds more than one chunk's codes.
9**4 is one such chunk of a dim-9, five-variable check.

Inside a check a tuple is keyed by one integer, its code: the tuple's index
in the identity's variable order, packed in base d, shifted above n parity
bits that hold the parities of its basis vectors.  Each term codes every key
position of its node by one column of integers, so a join adds its
arguments' codes, the parity bits index the term's table of signed weights,
and codes sort as their tuples do.  Only failing codes are decoded back to
tuples; kept tables stay keyed by tuple.  The chunks are visited in order,
so a failing check stops at the first chunk with a nonzero residue and
reports that chunk's least failing tuple; a check in one chunk sorts all of
its failing codes, with the same first one.  A tuple outside the support of
every term has residue zero, so visiting only the supports decides every one
of the d**n tuples and the count stays exact.

A passing check of the form of :func:`dsl.slot_symmetry` records its slot
symmetry as a fact on the binding, if every bound product is graded.  A
later check of more than ``_ORBITS`` tuples reads, by
:func:`normal.orbit_pairs`, disjoint pairs of variables whose swap maps the
identity to plus or minus itself modulo those facts, and visits only the
tuples sorted on each pair, one per orbit.  An orbit's lexicographically least
tuple is its sorted one, so the verdict, the first counterexample and its
residue are unchanged, and the count stays ``d**n``.  The restriction is
one set of bounds, ``(limits, pairs, memo)``, that every accumulation reads
(None for none): a chunk fixes its variable's index and bounds its
partner's below, a pair inside a kept argument table filters its rows, and
a pair split between the first argument of a term's top product and a later
one bounds the later one per branch.  No chunk is added.

Arithmetic is integer.  Tensors and twist columns are stored as integers
times the lcm of their denominators; a node's values are its true values
times its scale, the product of its factors' scales; each identity gets one
common scale S, and each term one integer weight, coefficient * S / scale,
times its sign at each parity pattern.  The residue is divided by S only
when an :class:`Element` is built.
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

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .core import Element, EvenMap, SuperSpace, Value, apply_map, power
from .dsl import ANGLE, BRACES, BRACKET, JORDAN, STAR, Expr, Identity, SignPoly, Twist, Var, slot_symmetry
from .reports import CheckReport
from .structures import BinaryStructure, ProductTensor, TernaryStructure, bin_mul, grading_check, tern_mul


class UnboundSymbolError(KeyError):
    """An identity uses an operation symbol the binding does not supply."""


class StructureBinding(Value):
    """Assignment of the DSL's operation symbols to concrete structures.

    ``ops`` maps a symbol ("*", "[]", "o", "{}", "<>") to a binary or ternary
    structure-constant model; ``twist`` interprets the twist symbol A.  All
    bound structures must share one superspace.

    The binding also holds the kernel behind :func:`check`, compiled once
    per binding when a check first needs it: each non-identity twist power
    as integer sparse columns (an identity twist compiles to no powers at
    all), each bound structure followed by each twist power a check needs
    as integer constants indexed by their support, and one node per
    sub-term shape, a leaf or a product with any twist folded into its
    table or tensor, whose table of nonzero values, keyed by basis-index
    tuple, is built once and shared by every sub-term of that shape, across
    all identities checked on this binding.  What depends on the identity
    alone is compiled once per identity and kept on it, never here.  The
    common scale, the weights, the integer codes a check keys its residue
    by, and the coded copies of the tables it reads, last only for that
    check.  ``_facts`` holds the slot symmetries checks on this binding have
    verified, ``(symbol, i, j) -> (c, q)`` as :mod:`normal` reads them; a
    later check restricts its tuples by them.  The three tables,
    ``_tensors`` by symbol and power, ``_columns`` by twist power and
    ``_nodes`` by shape and by node key, and ``_facts`` are the slots
    outside ``_fields``: they take no part in equality or ``repr``, and a
    new binding starts with them empty, so it never sees values or facts of
    an old one.
    """

    _fields = ("space", "ops", "twist")
    __slots__ = (*_fields, "_tensors", "_columns", "_nodes", "_facts")

    def __init__(self, space: SuperSpace, ops: Mapping[str, ProductTensor], twist: EvenMap):
        for symbol, structure in ops.items():
            if structure.space != space:
                raise ValueError(f"structure bound to {symbol!r} lives in a different space")
            expected = BinaryStructure if symbol in (STAR, BRACKET, JORDAN) else TernaryStructure
            if not isinstance(structure, expected):
                raise ValueError(f"symbol {symbol!r} needs a {expected.__name__}")
        if twist.space != space:
            raise ValueError("twist lives in a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ops", dict(ops))
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "_tensors", {})
        object.__setattr__(self, "_columns", {})
        object.__setattr__(self, "_nodes", {})
        object.__setattr__(self, "_facts", {})

    def op(self, symbol: str) -> ProductTensor:
        try:
            return self.ops[symbol]
        except KeyError:
            raise UnboundSymbolError(f"no structure bound to operation symbol {symbol!r}") from None

    def _tensor(self, symbol: str, power: int) -> tuple[int, dict]:
        """The bound structure, followed by the ``power``-th twist power if
        ``power`` has columns, as ``(scale, support)``: its integer constants
        times ``scale``, each nonzero row a tuple of ``(target, entry)``
        pairs, nested by every index of its key but the last for the join of
        :class:`_Product`: the first index maps to the :func:`_branches` of
        the rest, ``i -> [(j, row)]`` for a binary structure and ``i -> [(j,
        [(k, row)])]`` for a ternary one."""
        if (symbol, power) not in self._tensors:
            constants = self.op(symbol).constants
            scale = math.lcm(*(c.denominator for value in constants.values() for c in value.coords.values()))
            twist_scale, columns = self._twist_columns(power) if power else (1, None)
            support: dict = {}
            for key, value in constants.items():
                row = _integral(value.coords, scale)
                if columns:
                    row = _mapped(row, columns)
                if row:
                    index = support
                    for i in key[:-1]:
                        index = index.setdefault(i, {})
                    index[key[-1]] = tuple(row.items())
            self._tensors[symbol, power] = scale * twist_scale, {i: _branches(index) for i, index in support.items()}
        return self._tensors[symbol, power]

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

    def _node(self, shape: _Shape) -> _Node:
        """The compiled node of a sub-term shape, kept by the shape and by
        ``(kind, power, *argument nodes)``, a power that compiles to the
        identity read as 0.  A shape is looked up first; a new one is built
        from its arguments' nodes only if no node has its key, so under an
        identity twist ``A(x)`` shares the node of ``x``, and ``(A(x)*A(y))``
        that of ``(x*y)``."""
        node = self._nodes.get(shape)
        if node is None:
            columns = self._twist_columns(shape.power) if shape.power else None
            args = [self._node(arg) for arg in shape.args]
            key = (shape.kind, shape.power if columns else 0, *args)
            node = self._nodes.get(key)
            if node is None:
                if shape.kind is None:
                    node = _Leaf(self.space.parities, *columns or ())
                else:
                    node = _Product(*self._tensor(*key[:2]), args)
                self._nodes[key] = node
            self._nodes[shape] = node
        return node


@functools.lru_cache(maxsize=8)
def _twist_powers(twist: EvenMap, highest: int) -> tuple[EvenMap, ...]:
    """The powers 0..highest of ``twist``, built once for a walk that
    evaluates one identity on one binding tuple after tuple."""
    return tuple(power(twist, n) for n in range(highest + 1))


def _evaluate_expr(expr: Expr, env: Mapping[str, Element], binding: StructureBinding, powers: Sequence[EvenMap]) -> Element:
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Twist):
        return apply_map(powers[expr.power], _evaluate_expr(expr.arg, env, binding, powers))
    values = [_evaluate_expr(arg, env, binding, powers) for arg in expr.args]
    structure = binding.op(expr.op)
    if expr.op in (BRACES, ANGLE):
        return tern_mul(structure, *values)
    return bin_mul(structure, *values)


def _term_residue(identity: Identity, env: Mapping[str, Element], parities: Mapping[str, int], binding: StructureBinding, powers: Sequence[EvenMap]) -> Element:
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


def _mapped(vector: Mapping[int, int], columns: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """The integer ``vector`` mapped through integer sparse ``columns``, without zeros."""
    out: dict[int, int] = {}
    for source, c in vector.items():
        for target, entry in columns[source].items():
            out[target] = out.get(target, 0) + c * entry
    return {target: c for target, c in out.items() if c}


def _decode(code: int, dim: int, n: int) -> tuple[int, ...]:
    """The basis-index tuple packed in base ``dim`` above the ``n`` low bits
    of ``code``, most significant digit first."""
    packed, digits = code >> n, []
    for _ in range(n):
        packed, index = divmod(packed, dim)
        digits.append(index)
    return tuple(reversed(digits))


def _columns(parities: Sequence[int], n: int) -> list[list[int]]:
    """For each position ``v`` of an n-variable order, the code of each basis
    index ``i`` there: ``i * dim**(n-1-v) << n | parity(i) << v``."""
    dim = len(parities)
    return [[i * dim ** (n - 1 - v) << n | parity << v for i, parity in enumerate(parities)] for v in range(n)]


def _branches(index: dict) -> list:
    """A nested ``{index: sub-index}`` dict as nested lists of ``(index,
    sub-index)`` pairs, down to the rows at its leaves."""
    return [(i, _branches(sub) if isinstance(sub, dict) else sub) for i, sub in index.items()]


def _components(rows: Iterable[tuple[int, dict[int, int]]], index: Optional[dict] = None) -> dict[int, list[tuple[int, int]]]:
    """``(code, vector)`` rows indexed by component: basis index -> [(code,
    coefficient)], added to ``index`` if it is given."""
    index = {} if index is None else index
    for code, vector in rows:
        for target, c in vector.items():
            index.setdefault(target, []).append((code, c))
    return index


class _Coding:
    """Integer keys for one term's values, and its weights by parity mask.

    ``codes[p]`` is the column of :func:`_columns` for ``positions[p]``, the
    position in the identity's variable order of the variable at key
    position ``p`` of the term's node.  A tuple's code is the sum of its
    positions' codes, so a join adds the codes of its arguments' rows.
    ``code & mask`` is the tuple's parity pattern, which indexes ``weights``;
    ``code >> n`` is the tuple's index in identity order, packed in base
    ``dim``, so codes sort as their tuples do, and :func:`_decode` gives the
    tuple back.
    """

    __slots__ = ("codes", "positions", "weights", "mask", "_memo")

    def __init__(self, columns: list[list[int]], positions: Sequence[int], weights: list[int], memo: dict) -> None:
        self.positions = tuple(positions)
        self.codes = [columns[v] for v in self.positions]
        self.weights, self.mask, self._memo = weights, len(weights) - 1, memo

    def coded(self, node: _Node, offset: int, bounds: Optional[tuple], form=dict):
        """The kept rows of ``node``, whose key starts at position ``offset``
        of the term's key, that lie within ``bounds``, as ``(code, vector)``
        pairs gathered by ``form`` (``dict`` or :func:`_components`).

        ``bounds`` is None for every row, or ``(limits, pairs, memo)``: a
        row is kept if its index at each identity position of ``limits``
        lies in that position's inclusive range, and at ``p`` is at most its
        index at ``q`` for each pair ``(p, q)`` of ``pairs`` that falls
        inside the node.  The coded rows are kept by node and the identity
        positions its key lands on: once per check, in the memo the terms
        share, if no limit falls on them, else once per chunk, in ``memo``,
        since each chunk of a chunked check reads its own."""
        positions = self.positions[offset:offset + node.width]
        key = (form, node, positions)
        limited = bounds is not None and not bounds[0].keys().isdisjoint(positions)
        memo = bounds[2] if limited else self._memo
        coded = memo.get(key)
        if coded is None:
            rows = node.table().items() if bounds is None else _within(node, positions, bounds)
            codes = self.codes[offset:offset + node.width]
            coded = memo[key] = form((sum(map(list.__getitem__, codes, k)), vector) for k, vector in rows)
        return coded


def _within(node: _Node, positions: tuple[int, ...], bounds: tuple) -> list:
    """The rows of ``node``'s kept table, its key landing on the identity
    ``positions``, that lie within ``bounds``, a fixed index read from its
    slice by :meth:`_Node.at`."""
    limits, pairs, _ = bounds
    ranges = [(k, *limits[v]) for k, v in enumerate(positions) if v in limits]
    fixed = next(((k, low) for k, low, high in ranges if low == high), None)
    rows = list((node.table() if fixed is None else node.at(*fixed)).items())
    for k, low, high in ranges:
        if (k, low) != fixed:
            rows = [(key, vector) for key, vector in rows if low <= key[k] <= high]
    for p, q in pairs:
        if p in positions and q in positions:
            p, q = positions.index(p), positions.index(q)
            rows = [(key, vector) for key, vector in rows if key[p] <= key[q]]
    return rows


class _Node:
    """A compiled sub-term, keyed by the tuple of basis indices of its own
    ``width`` variables in traversal order.

    There are two kinds, :class:`_Leaf` and :class:`_Product`, and any
    twist is already folded into their tables.  ``accumulate(bounds, sink,
    coding)`` adds the node's values at the keys within ``bounds`` (see
    :meth:`_Coding.coded`) into ``sink``, each under its code in ``coding``
    and weighted by ``coding.weights[code & coding.mask]``.  A node whose
    table is kept, as a leaf's always is, walks it; a product without one
    joins its arguments' coded tables straight into the sink.  So a term's
    top node is never materialized.  ``table()`` builds the kept table with
    that same join, at unit weight under codes of the node's own key order
    over the space's ``parities``, decodes each code back to its tuple once,
    and keeps it.
    """

    __slots__ = ("scale", "width", "parities", "_table", "_slices")

    def __init__(self, scale: int, width: int, parities: Sequence[int]) -> None:
        self.scale, self.width, self.parities = scale, width, parities
        self._table: Optional[dict[tuple, dict[int, int]]] = None
        self._slices: dict[int, dict[int, dict]] = {}

    def table(self) -> dict[tuple, dict[int, int]]:
        if self._table is None:
            self._table = self._join()
        return self._table

    def at(self, position: int, index: int) -> dict[tuple, dict[int, int]]:
        """The rows of the kept table with ``index`` at ``position``."""
        slices = self._slices.get(position)
        if slices is None:
            slices = self._slices[position] = {}
            for key, vector in self.table().items():
                slices.setdefault(key[position], {})[key] = vector
        return slices.get(index, {})

    def _join(self) -> dict[tuple, dict[int, int]]:
        """The node's nonzero values, accumulated afresh."""
        width, dim = self.width, len(self.parities)
        sink: dict[int, dict[int, int]] = {}
        self.accumulate(None, sink, _Coding(_columns(self.parities, width), range(width), [1] * (1 << width), {}))
        out = {}
        for code, vector in sink.items():
            if 0 in vector.values():
                vector = {target: c for target, c in vector.items() if c}
            if vector:
                out[_decode(code, dim, width)] = vector
        return out

    def accumulate(self, bounds: Optional[tuple], sink: dict, coding: _Coding) -> None:
        if self._table is None:
            return self._accumulate(bounds, sink, coding)
        weights, mask = coding.weights, coding.mask
        for code, vector in coding.coded(self, 0, bounds).items():
            w = weights[code & mask]
            acc = sink.get(code)
            if acc is None:
                sink[code] = acc = {}
            for target, c in vector.items():
                acc[target] = acc.get(target, 0) + w * c


class _Leaf(_Node):
    """A variable under a twist power: the power's nonzero integer sparse
    ``columns`` times ``scale``, or the basis vectors if there are none."""

    __slots__ = ()

    def __init__(self, parities: Sequence[int], scale: int = 1, columns: Optional[Sequence[dict]] = None) -> None:
        super().__init__(scale, 1, parities)
        columns = columns or [{i: 1} for i in range(len(parities))]
        self._table = {(i,): column for i, column in enumerate(columns) if column}


class _Product(_Node):
    """A product of the bound tensor ``support`` with its argument nodes.

    The join is driven by the first argument's coded rows.  Each basis index
    ``i`` they hold opens one branch ``(code, coefficient, support[i])``;
    each middle argument extends every branch through its component index,
    one step down the support; the last argument meets the rows at the
    leaves.  A pair of ``bounds`` split between the first argument and a
    later one bounds the later one per branch, by :meth:`_widening`: the
    first argument's rows come in the order in which that bound only
    widens, and the later argument's index grows by the rows it admits, so
    each argument is still coded once.
    """

    __slots__ = ("support", "args")

    def __init__(self, scale: int, support: dict, args: Sequence[_Node]) -> None:
        super().__init__(
            scale * math.prod(arg.scale for arg in args), sum(arg.width for arg in args), args[0].parities
        )
        self.support, self.args = support, tuple(args)

    def _arguments(self, bounds, coding: _Coding) -> tuple:
        """The first argument's coded rows, the later arguments' coded
        component indexes, within ``bounds``, and the pair of ``bounds``
        split between the first argument and a later one, if any, as
        ``(lead, member)`` with the lead in the first argument; the member's
        argument then has an empty index, to be grown by
        :meth:`_widening`, and is returned as ``(node, offset, index)``."""
        args, positions, split, held = self.args, coding.positions, None, None
        if bounds and bounds[1]:
            head = positions[:args[0].width]
            split = next(((p, q) if p in head else (q, p) for p, q in bounds[1] if (p in head) != (q in head)), None)
        others, offset = [], args[0].width
        for arg in args[1:]:
            if split and split[1] in positions[offset:offset + arg.width]:
                held = arg, offset, {}
                others.append(held[2])
            else:
                others.append(coding.coded(arg, offset, bounds, _components))
            offset += arg.width
        return coding.coded(args[0], 0, bounds), others, split, held

    def _widening(self, bounds, coding: _Coding, firsts: dict, split: tuple, held: tuple):
        """The first argument's rows in the order in which the bound that
        the lead's index sets on the member only widens: the member at
        least the lead's index if it comes later in the identity's order,
        else at most.  Before each row, the member's argument's index grows
        by the rows its bound newly admits."""
        (lead, member), (node, offset, grown) = split, held
        dim, n = len(self.parities), coding.mask.bit_length()
        lead_unit, member_unit = (dim ** (n - 1 - v) << n for v in split)
        buckets: dict[int, list] = {}
        for code, vector in coding.coded(node, offset, bounds).items():
            buckets.setdefault(code // member_unit % dim, []).append((code, vector))
        lower = lead < member
        edge = dim if lower else -1
        for code, vector in sorted(firsts.items(), key=lambda row: row[0] // lead_unit % dim, reverse=lower):
            index = code // lead_unit % dim
            if index != edge:
                admitted = range(index, edge) if lower else range(edge + 1, index + 1)
                _components(itertools.chain.from_iterable(buckets.get(i, ()) for i in admitted), grown)
                edge = index
            if grown:
                yield code, vector

    def _accumulate(self, bounds, sink, coding):
        support, weights, mask = self.support, coding.weights, coding.mask
        firsts, (*middles, lasts), split, held = self._arguments(bounds, coding)
        rows = firsts.items() if split is None else self._widening(bounds, coding, firsts, split, held)
        for ka, a in rows:
            for i, ca in a.items():
                index = support.get(i)
                if index is None:
                    continue
                branches = ((ka, ca, index),)
                for components in middles:
                    branches = [
                        (kb + kc, cb * cc, sub)
                        for kb, cb, index in branches
                        for j, sub in index
                        for kc, cc in components.get(j, ())
                    ]
                for kb, cb, index in branches:
                    for k, row in index:
                        for kc, cc in lasts.get(k, ()):
                            code = kb + kc
                            c = cb * cc * weights[code & mask]
                            acc = sink.get(code)
                            if acc is None:
                                sink[code] = acc = {}
                            for target, entry in row:
                                acc[target] = acc.get(target, 0) + c * entry


class _Shape:
    """A sub-term up to renaming of its variables, interned by :func:`_shape`.

    ``kind`` is None for a variable and the operation symbol for a product,
    ``power`` sums the powers of the twists around it and ``args`` are the
    argument shapes.  Equal shapes are one object, hashed by identity.
    """

    __slots__ = ("kind", "power", "args")

    def __init__(self, kind: Optional[str], power: int, args: tuple[_Shape, ...]) -> None:
        self.kind, self.power, self.args = kind, power, args


# Every shape built in this process, keyed by its kind, power and argument shapes.
_SHAPES: dict[tuple, _Shape] = {}


def _shape(expr: Expr, order: list[str]) -> _Shape:
    """The interned shape of ``expr``; ``order`` collects its variables in
    traversal order.  A multilinear term holds each variable once, so two
    sub-terms are equal up to renaming iff their shapes are one object."""
    power = 0
    while isinstance(expr, Twist):
        power, expr = power + expr.power, expr.arg
    if isinstance(expr, Var):
        order.append(expr.name)
        key: tuple = (None, power)
    else:
        key = (expr.op, power, *(_shape(arg, order) for arg in expr.args))
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = _Shape(key[0], power, key[2:])
    return shape


def _signs(sign: SignPoly, place: Mapping[str, int]) -> list[int]:
    """``(-1)**sign`` at each parity mask whose bit ``place[name]`` is the
    parity of variable ``name``: each monomial, read as the bitmask of its
    variables, flips the sign at every mask that holds all of its bits."""
    size = 1 << len(place)
    signs = [1] * size
    for monomial in sign.monomials:
        bits = sum(1 << place[name] for name in monomial)
        for mask in range(bits, size):
            if mask & bits == bits:
                signs[mask] = -signs[mask]
    return signs


def _plan(identity: Identity) -> tuple[tuple, ...]:
    """The identity's structure-free compile work, done on its first check
    and kept as ``identity.plan``: per term, the :func:`_shape` of its
    expression, the position in the identity's variable order of each of
    its key positions, its coefficient, and its table of :func:`_signs`,
    one table per distinct sign.  It holds nothing of a binding, so every
    binding reads the same plan."""
    plan = identity.plan
    if plan is None:
        place = {name: v for v, name in enumerate(identity.variables)}
        signs: dict[SignPoly, tuple[int, ...]] = {}
        steps = []
        for term in identity.terms:
            order: list[str] = []
            shape = _shape(term.expr, order)
            if term.sign not in signs:
                signs[term.sign] = tuple(_signs(term.sign, place))
            steps.append((shape, tuple(place[name] for name in order), term.coefficient, signs[term.sign]))
        plan = tuple(steps)
        object.__setattr__(identity, "plan", plan)
    return plan


def _compile(binding: StructureBinding, identity: Identity) -> tuple[int, list[tuple]]:
    """The identity's common scale S and, per term, its node and its
    :class:`_Coding`.

    A term's weight is ``coefficient * S / node.scale``, an integer because S
    is the lcm of every ``node.scale * coefficient.denominator``; its weight
    at a parity mask is that times its sign there, read from the plan."""
    plan = _plan(identity)
    nodes = [binding._node(shape) for shape, *_ in plan]
    scale = math.lcm(*(node.scale * coefficient.denominator for node, (_, _, coefficient, _) in zip(nodes, plan)))
    columns, memo = _columns(binding.space.parities, identity.arity), {}
    terms = []
    for node, (_, positions, coefficient, signs) in zip(nodes, plan):
        weight = coefficient.numerator * (scale // (node.scale * coefficient.denominator))
        terms.append((node, _Coding(columns, positions, [weight * s for s in signs], memo)))
    return scale, terms


# The most tuples a check decides in one chunk; a larger check is chunked by
# the basis index of its first variable.
_ONE_PASS = 9**4


# The most tuples a check visits without restricting them to orbits: below
# it, bounding the join costs more than it saves.
_ORBITS = 9**3


def _chunks(pairs: tuple, dim: int, arity: int):
    """The bounds of each chunk of a check whose tuples are bounded by
    ``pairs``: one chunk of all of them if there are at most ``_ONE_PASS``,
    else one per basis index of the first variable, which fixes that index
    and bounds the first variable's partner in ``pairs`` below by it."""
    if dim**arity <= _ONE_PASS:
        yield ({}, pairs, {}) if pairs else None
        return
    partner, rest = dict(pairs).get(0), tuple(pair for pair in pairs if pair[0])
    for index in range(dim):
        limits = {0: (index, index)}
        if partner is not None:
            limits[partner] = (index, dim - 1)
        yield limits, rest, {}


def _chunk(terms: list[tuple], bounds: tuple) -> dict[int, dict[int, int]]:
    """The scaled residues of every tuple within ``bounds`` at which some
    term has a product, keyed by code; they may hold zero entries."""
    residue: dict[int, dict[int, int]] = {}
    for node, coding in terms:
        node.accumulate(bounds, residue, coding)
    return residue


def _element(space: SuperSpace, vector: Mapping[int, int], scale: int) -> Element:
    return Element(space, {target: Fraction(c, scale) for target, c in vector.items() if c})


def _nonzero(binding: StructureBinding, identity: Identity, pairs: tuple = ()):
    """Every tuple with ``t[p] <= t[q]`` for each pair ``(p, q)`` of
    ``pairs`` and a nonzero residue, with that residue as an Element, keyed
    by basis-index tuple in the order of ``identity.variables``, in
    lexicographic order, one chunk of :func:`_chunks` at a time.  A chunk
    with no nonzero entry is passed over by one test; only a failing chunk
    sorts its codes."""
    space, arity = binding.space, identity.arity
    scale, terms = _compile(binding, identity)
    for bounds in _chunks(pairs, space.dim, arity):
        residue = _chunk(terms, bounds)
        if not any(map(any, map(dict.values, residue.values()))):
            continue
        for code in sorted([code for code, vector in residue.items() if any(vector.values())]):
            yield _decode(code, space.dim, arity), _element(space, residue[code], scale)


def check(binding: StructureBinding, identity: Identity) -> CheckReport:
    """Evaluate every term on every homogeneous basis tuple; exact verdict.

    The residue at each tuple is the signed, coefficient-weighted sum of the
    identity's terms; the identity passes iff the residue is the zero element
    at all tuples.  The counterexample reported for a failing identity is the
    lexicographically first failing tuple in basis order: the first tuple
    :func:`_nonzero` yields, after which no later chunk is built.  Checks on
    one binding share its compiled tensors and sub-term tables.

    Once a check of the form of :func:`dsl.slot_symmetry` has passed on a
    graded binding, its slot symmetry is one of the binding's ``_facts``.
    A later check then visits only the tuples sorted on each pair of
    :func:`normal.orbit_pairs`: swapping a pair's tuple entries maps the residue
    to plus or minus itself, so an unsorted tuple fails iff its sorted swap
    does, which comes before it.  Verdict, counterexample, residue and the
    ``d**n`` count are those of a visit of every tuple.
    """
    space, facts = binding.space, binding._facts
    total = space.dim ** identity.arity
    pairs = ()
    if total > _ORBITS:
        from .normal import orbit_pairs

        pairs = orbit_pairs(identity, facts)
    for indices, residue in _nonzero(binding, identity, pairs):
        return CheckReport(
            name=identity.name,
            passed=False,
            tuples_checked=total,
            counterexample=tuple(space.names[i] for i in indices),
            residue=residue,
        )
    form = slot_symmetry(identity)
    # A binding holds facts only once its products have passed the grading check.
    if form is not None and (facts or all(grading_check(op).passed for op in binding.ops.values())):
        facts[form[:3]] = form[3:]
    return CheckReport(name=identity.name, passed=True, tuples_checked=total)


def tabulate(binding: StructureBinding, identity: Identity) -> dict[tuple[int, ...], Element]:
    """The nonzero values of the identity's term sum, keyed by basis-index
    tuple in the order of ``identity.variables``, in lexicographic order: the
    structure constants of the product the term sum defines."""
    return dict(_nonzero(binding, identity))


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
    powers = _twist_powers(binding.twist, identity.max_twist_power())
    variables = identity.variables
    split = {var: assignment[var].homogeneous_parts() for var in variables}
    residue = binding.space.zero()
    for combo in itertools.product(*(split[var] or [(0, binding.space.zero())] for var in variables)):
        env = {var: part for var, (_, part) in zip(variables, combo)}
        parities = {var: parity for var, (parity, _) in zip(variables, combo)}
        residue = residue + _term_residue(identity, env, parities, binding, powers)
    return residue
