"""Identities as formal sums modulo verified slot symmetries.

A slot symmetry is a fact ``facts[op, i, j] = (c, q)``, read by
:func:`dsl.slot_symmetry` from a passing check: swapping slots i and j of the
product ``op`` multiplies its value by ``c * (-1)**q``, c being +-1 and q a
sign polynomial over slot numbers read at the parities of the arguments
before the swap.  :func:`normal_form` orders the arguments of every such slot
pair canonically, :func:`symmetric_pairs` finds the variable pairs whose
swap maps an identity to plus or minus itself, and :func:`orbit_pairs`
picks those the engine's kernel restricts a check by.  The engine imports
this module only for a check large enough to restrict.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .dsl import Expr, Identity, Twist, Var, variable_counts


def normal_form(identity: Identity, facts: Mapping, swap: tuple[int, ...] = ()) -> dict:
    """``identity`` as a formal sum modulo the slot symmetries ``facts``, its
    variables named by their positions in ``identity.variables``, the two
    positions of ``swap`` exchanged: ``{(expr key, sign monomials):
    coefficient}``, without zeros and without the constant monomial.

    Each product holds the arguments of each of its symmetric slot pairs in
    key order; a swap multiplies the term by ``c`` and adds q, read at the
    arguments' parities (the sums of their variables' parities), to its
    sign.  On a graded binding where ``facts`` hold, a term and its normal
    form take equal values at every homogeneous tuple."""
    place = {name: v for v, name in enumerate(identity.variables)}
    for v in swap:
        place[identity.variables[v]] = sum(swap) - v
    out: dict = {}
    for term in identity.terms:
        key, sign, monomials, _ = _normal(term.expr, facts, place)
        monomials ^= {frozenset(place[name] for name in mono) for mono in term.sign.monomials}
        if frozenset() in monomials:
            sign, monomials = -sign, monomials - {frozenset()}
        key = (key, frozenset(monomials))
        out[key] = out.get(key, 0) + sign * term.coefficient
    return {key: c for key, c in out.items() if c}


def _normal(expr: Expr, facts: Mapping, place: Mapping[str, int]) -> tuple[tuple, int, set, tuple[int, ...]]:
    """``expr``'s normal form as (key, sign +-1, sign monomials, positions of
    its variables in order)."""
    power = 0
    while isinstance(expr, Twist):
        power, expr = power + expr.power, expr.arg
    if isinstance(expr, Var):
        return ("", power, place[expr.name]), 1, set(), (place[expr.name],)
    sign, monomials, args = 1, set(), []
    for arg in expr.args:
        key, s, m, variables = _normal(arg, facts, place)
        sign, monomials = sign * s, monomials ^ m
        args.append((key, variables))
    for (op, i, j), (c, q) in facts.items():
        if op == expr.op and args[j][0] < args[i][0]:
            for mono in q:
                monomials ^= {frozenset(pick) for pick in itertools.product(*(args[k][1] for k in mono))}
            sign *= c
            args[i], args[j] = args[j], args[i]
    return (expr.op, power, *(key for key, _ in args)), sign, monomials, sum((v for _, v in args), ())


def symmetric_pairs(identity: Identity, facts: Mapping) -> list[tuple[int, int]]:
    """The position pairs ``p < q`` whose swap maps ``identity``, modulo
    ``facts``, to ``e * (-1)**m`` times itself, e = +-1 and m a sign
    polynomial.  Where ``facts`` hold on a graded binding, the identity's
    residues at a tuple and at the tuple with p and q swapped are then equal
    up to sign.  The candidates for (m, e) are read off the terms of the
    swapped form whose expression is that of the first normal term."""
    normal = normal_form(identity, facts)
    if not normal:
        return []
    first, signs = next(iter(normal))
    pairs = []
    for p, q in itertools.combinations(range(identity.arity), 2):
        swapped = normal_form(identity, facts, (p, q))
        candidates = {(m ^ signs, c / normal[first, signs]) for (key, m), c in swapped.items() if key == first}
        if any(
            abs(e) == 1 and swapped == {(key, s ^ m): e * c for (key, s), c in normal.items()} for m, e in candidates
        ):
            pairs.append((p, q))
    return pairs


def orbit_pairs(identity: Identity, facts: Mapping) -> tuple[tuple[int, int], ...]:
    """Disjoint pairs of :func:`symmetric_pairs`, each taken in order if
    every term's top product can still bound all that are taken
    (:func:`_bounded`).  They are kept in ``identity.symmetries`` by
    ``facts``, so a later check under the same facts reads them by one
    lookup."""
    key = tuple(sorted(facts.items()))
    pairs = identity.symmetries.get(key)
    if pairs is None:
        place = {name: v for v, name in enumerate(identity.variables)}
        owners = [owner for owner in (_owners(term.expr, place) for term in identity.terms) if owner]
        pairs = ()
        for pair in symmetric_pairs(identity, facts):
            chosen = (*pairs, pair)
            if len(set(itertools.chain(*chosen))) == 2 * len(chosen) and all(_bounded(o, chosen) for o in owners):
                pairs = chosen
        identity.symmetries[key] = pairs
    return pairs


def _owners(expr: Expr, place: Mapping[str, int]) -> dict[int, int]:
    """For each variable position of ``expr``, the argument of its top
    product that holds it; empty if ``expr`` is a variable."""
    while isinstance(expr, Twist):
        expr = expr.arg
    owner: dict[int, int] = {}
    for k, arg in enumerate(() if isinstance(expr, Var) else expr.args):
        counts: dict[str, int] = {}
        variable_counts(arg, counts)
        owner.update((place[name], k) for name in counts)
    return owner


def _bounded(owner: Mapping[int, int], pairs: tuple) -> bool:
    """Whether the kernel can bound ``pairs`` in a term whose top product's
    arguments hold the variable positions as ``owner`` says: at most one
    pair lies across two arguments, and then one of them is the first, so
    it is bounded per branch of the first argument's rows."""
    across = [(p, q) for p, q in pairs if owner[p] != owner[q]]
    return len(across) <= 1 and all(0 in (owner[p], owner[q]) for p, q in across)
