"""A small expression language for graded multilinear identities.

Grammar (ASCII, whitespace insignificant)::

    identity  := sum "=" "0"
    sum       := signedterm { ("+"|"-") signedterm }
    signedterm:= [rational] [ "(-1)^{" signpoly "}" ] expr
    signpoly  := mono { "+" mono } ;  mono := var | var "." var | "1"
    expr      := var | "A" ["^" int] "(" expr ")" | "(" expr "*" expr ")"
               | "[" expr "," expr "]" | "{" expr "," expr "," expr "}"
               | "<" expr "," expr "," expr ">" | "as(" expr "," expr "," expr ")"
               | "o(" expr "," expr ")"

``A`` is the twist symbol (``A^k`` its k-fold composition), ``*`` the bound
binary product, ``[.,.]`` the bound bracket, ``o`` the bound symmetrized
product, ``{.,.,.}`` and ``<.,.,.>`` the two ternary symbols.  ``as(a,b,c)``
abbreviates ``((a*b)*A(c)) - (A(a)*(b*c))``: the parser expands it, and
distributes the two sides through any enclosing product or twist, so a term
holding an ``as`` becomes two terms, the ``((a*b)*A(c))`` side first, and no
parsed expression holds an ``as`` call.  In a sign exponent, ``x.y``
denotes the product of the parities of the values bound to x and y, and
``x`` alone denotes the parity of x; exponents are read mod 2.
``SignPoly.parse`` reads a bare exponent by the same ``signpoly`` rule.

Every identity must be multilinear: each variable of the identity occurs
exactly once in every term.  Over a field of characteristic 0 this makes
verification on homogeneous basis tuples complete, which is the engine's
stated precondition.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional, Union

from .core import Value

RESERVED = {"A", "as", "o"}

STAR = "*"
BRACKET = "[]"
JORDAN = "o"
BRACES = "{}"
ANGLE = "<>"
ASSOC = "as"


class IdentitySyntaxError(ValueError):
    """Raised on malformed identity text; carries the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MultilinearityError(ValueError):
    """Raised when a term does not use every variable exactly once."""


class SignPoly(Value):
    """A GF(2) polynomial of degree <= 2 in variable parities.

    ``monomials`` is a set of frozensets of variable names: the empty set is
    the constant 1, singletons are bare parities, pairs are parity products.
    ``(-1)**evaluate(...)`` is the sign the polynomial contributes.
    """

    __slots__ = _fields = ("monomials",)

    def __init__(self, monomials: frozenset[frozenset[str]] = frozenset()):
        object.__setattr__(self, "monomials", monomials)

    @staticmethod
    def zero() -> "SignPoly":
        return SignPoly(frozenset())

    @staticmethod
    def parse(text: str) -> "SignPoly":
        """Parse a sign exponent such as ``"x.y + z + 1"`` by the grammar's ``signpoly`` rule."""
        parser = _Parser(text)
        poly = parser.parse_signpoly()
        if parser.peek() is not None:
            raise parser.error("trailing input after the sign exponent")
        return poly

    def __add__(self, other: "SignPoly") -> "SignPoly":
        return SignPoly(self.monomials ^ other.monomials)

    @property
    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for mono in self.monomials:
            out |= mono
        return frozenset(out)

    def evaluate(self, parities: Mapping[str, int]) -> int:
        total = 0
        for mono in self.monomials:
            value = 1
            for var in mono:
                value *= parities[var] % 2
            total += value
        return total % 2

    def sign(self, parities: Mapping[str, int]) -> int:
        return -1 if self.evaluate(parities) else 1

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        rendered = sorted(".".join(sorted(m)) if m else "1" for m in self.monomials)
        return " + ".join(rendered)


class Var(Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Twist(Value):
    __slots__ = _fields = ("power", "arg")

    def __init__(self, power: int, arg: "Expr"):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "arg", arg)


class Call(Value):
    __slots__ = _fields = ("op", "args")

    def __init__(self, op: str, args: tuple["Expr", ...]):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)


Expr = Union[Var, Twist, Call]


class Term(Value):
    __slots__ = _fields = ("coefficient", "sign", "expr")

    def __init__(self, coefficient: Fraction, sign: SignPoly, expr: Expr):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "expr", expr)


class Identity(Value):
    """A parsed multilinear identity, asserted to equal zero.

    ``plan`` is the engine's compile plan of the identity, derived from the
    identity alone and kept on it at its first check, and ``symmetries``
    the engine's orbit pairs of the identity by the slot symmetries they
    were found under (see :func:`normal.symmetric_pairs`), kept as they are
    found.
    Neither takes part in equality, hashing or ``repr``, and neither is a
    constructor argument, so every new identity, a copy with other terms
    included, starts without them.
    """

    _fields = ("name", "variables", "terms")
    __slots__ = (*_fields, "plan", "symmetries")

    def __init__(self, name: str, variables: tuple[str, ...], terms: tuple[Term, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "plan", None)
        object.__setattr__(self, "symmetries", {})

    @property
    def arity(self) -> int:
        return len(self.variables)

    def max_twist_power(self) -> int:
        return max((_max_twist(term.expr) for term in self.terms), default=0)


def _max_twist(expr: Expr) -> int:
    if isinstance(expr, Var):
        return 0
    if isinstance(expr, Twist):
        return max(expr.power, _max_twist(expr.arg))
    return max(map(_max_twist, expr.args))


def without_twist(identity: Identity) -> Identity:
    """``identity`` with every twist power removed: its statement at the identity twist."""
    terms = tuple(Term(term.coefficient, term.sign, _untwisted(term.expr)) for term in identity.terms)
    return Identity(identity.name, identity.variables, terms)


def _untwisted(expr: Expr) -> Expr:
    if isinstance(expr, Twist):
        return _untwisted(expr.arg)
    return expr if isinstance(expr, Var) else Call(expr.op, tuple(map(_untwisted, expr.args)))


def slot_symmetry(identity: Identity) -> Optional[tuple[str, int, int, int, frozenset]]:
    """``(op, i, j, c, q)`` if ``identity`` is ``P(args) + e P(args')`` over
    bare variables, ``args'`` being ``args`` with slots ``i < j`` swapped and
    ``e`` a sign polynomial times +-1; None otherwise.  Where it holds, a
    swap of slots i and j multiplies ``P`` by ``c * (-1)**q``, q a sign
    polynomial over slot numbers read at the arguments' parities before the
    swap: the slot symmetry ``facts[op, i, j] = (c, q)`` of :mod:`normal`."""
    if len(identity.terms) != 2:
        return None
    first, second = identity.terms
    a, b = first.expr, second.expr
    if not (isinstance(a, Call) and isinstance(b, Call) and a.op == b.op
            and all(isinstance(arg, Var) for arg in a.args + b.args)):
        return None
    moved = [k for k, (x, y) in enumerate(zip(a.args, b.args)) if x != y]
    ratio = first.coefficient / second.coefficient
    if len(moved) != 2 or abs(ratio) != 1:
        return None
    slot = {arg.name: k for k, arg in enumerate(a.args)}
    q = frozenset(frozenset(slot[name] for name in mono) for mono in (first.sign + second.sign).monomials)
    return a.op, moved[0], moved[1], -int(ratio), q


def variable_counts(expr: Expr, counts: dict[str, int]) -> None:
    """Add each variable's number of occurrences in ``expr`` to ``counts``."""
    if isinstance(expr, Var):
        counts[expr.name] = counts.get(expr.name, 0) + 1
    elif isinstance(expr, Twist):
        variable_counts(expr.arg, counts)
    else:
        for arg in expr.args:
            variable_counts(arg, counts)


def leaf_weights(expr: Expr, twist_weight: int) -> dict[str, int]:
    """Each variable's weight in ``expr``: the sum, along its path from the
    root, of 1 per binary argument, 2 per ternary argument and
    ``twist_weight`` per power of the twist.  A Hom identity can hold in a
    free multiplicative Hom-algebra only if all of its terms give each
    variable one weight.
    """
    if isinstance(expr, Var):
        return {expr.name: 0}
    if isinstance(expr, Twist):
        shift = expr.power * twist_weight
        return {v: w + shift for v, w in leaf_weights(expr.arg, twist_weight).items()}
    step = len(expr.args) - 1
    return {v: w + step for arg in expr.args for v, w in leaf_weights(arg, twist_weight).items()}


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind  # "int" | "ident" | one of the punctuation characters
        self.text = text
        self.position = position


def _lex(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(source) and "0" <= source[j] <= "9":
                j += 1
            tokens.append(_Token("int", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if ch in "()[]{}<>,+-*=^./":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise IdentitySyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0

    def error(self, message: str) -> IdentitySyntaxError:
        position = self.tokens[self.pos].position if self.pos < len(self.tokens) else len(self.source)
        return IdentitySyntaxError(message, position)

    def peek(self, offset: int = 0) -> Optional[_Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            raise self.error(f"expected {kind!r}")
        return self.advance()

    # identity := sum "=" "0"
    def parse_identity(self) -> list[tuple[Fraction, SignPoly, Expr]]:
        terms = self.parse_signedterm()
        while True:
            token = self.peek()
            if token is None:
                raise self.error("missing '= 0'")
            if token.kind == "=":
                break
            if token.kind not in "+-":
                raise self.error("expected '+', '-', or '='")
            terms += self.parse_signedterm()
        self.expect("=")
        zero = self.expect("int")
        if zero.text != "0":
            raise IdentitySyntaxError("identities must be equated to 0", zero.position)
        if self.peek() is not None:
            raise self.error("trailing input after '= 0'")
        return terms

    def parse_signedterm(self) -> list[tuple[Fraction, SignPoly, Expr]]:
        """A term and its leading sign, as the terms its expression expands to."""
        coeff = Fraction(1)
        if self.peek() is not None and self.peek().kind in "+-":
            if self.advance().kind == "-":
                coeff = -coeff
        token = self.peek()
        if token is not None and token.kind == "int":
            coeff *= self.parse_rational()
        sign = self.try_parse_sign_base()
        return [(coeff * s, sign, expr) for s, expr in self.parse_expr()]

    def parse_rational(self) -> Fraction:
        numerator = int(self.expect("int").text)
        token = self.peek()
        if token is not None and token.kind == "/":
            self.advance()
            denominator = int(self.expect("int").text)
            if denominator == 0:
                raise self.error("zero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def try_parse_sign_base(self) -> SignPoly:
        """Recognize "(-1)^{ signpoly }" by lookahead; no-op if absent."""
        saved = self.pos
        token = self.peek()
        if token is None or token.kind != "(":
            return SignPoly.zero()
        shape = [t.kind if t is not None else None for t in (self.peek(1), self.peek(2), self.peek(3), self.peek(4))]
        if shape[:4] != ["-", "int", ")", "^"] or self.peek(2).text != "1":
            return SignPoly.zero()
        self.pos = saved + 5
        self.expect("{")
        poly = self.parse_signpoly()
        self.expect("}")
        return poly

    def parse_signpoly(self) -> SignPoly:
        poly = SignPoly.zero()
        while True:
            poly = poly + self.parse_mono()
            token = self.peek()
            if token is not None and token.kind == "+":
                self.advance()
                continue
            return poly

    def parse_mono(self) -> SignPoly:
        token = self.peek()
        if token is None:
            raise self.error("expected a sign monomial")
        if token.kind == "int":
            if token.text != "1":
                raise self.error("only the constant 1 is allowed in sign exponents")
            self.advance()
            return SignPoly(frozenset({frozenset()}))
        first = self.parse_signvar()
        token = self.peek()
        if token is not None and token.kind == ".":
            self.advance()
            second = self.parse_signvar()
            return SignPoly(frozenset({frozenset({first, second})}))
        return SignPoly(frozenset({frozenset({first})}))

    def parse_signvar(self) -> str:
        token = self.expect("ident")
        if token.text in RESERVED:
            raise IdentitySyntaxError(f"{token.text!r} is reserved and cannot name a variable", token.position)
        return token.text

    def parse_expr(self) -> list[tuple[int, Expr]]:
        """The expression as a sum of ``(sign, expr)`` pairs, signs +-1: a
        single pair unless it holds an ``as``."""
        token = self.peek()
        if token is None:
            raise self.error("expected an expression")
        if token.kind == "ident":
            if token.text == "A":
                return self.parse_twist()
            if token.text == ASSOC:
                self.advance()
                a, b, c = self.parse_args(3, "(", ")")
                plus = _call(STAR, _call(STAR, a, b), _twist(1, c))
                minus = _call(STAR, _twist(1, a), _call(STAR, b, c))
                return plus + [(-s, expr) for s, expr in minus]
            if token.text == JORDAN:
                self.advance()
                return _call(JORDAN, *self.parse_args(2, "(", ")"))
            self.advance()
            return [(1, Var(token.text))]
        if token.kind == "(":
            self.advance()
            left = self.parse_expr()
            self.expect("*")
            right = self.parse_expr()
            self.expect(")")
            return _call(STAR, left, right)
        if token.kind == "[":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return _call(BRACKET, left, right)
        if token.kind == "{":
            return _call(BRACES, *self.parse_args(3, "{", "}"))
        if token.kind == "<":
            return _call(ANGLE, *self.parse_args(3, "<", ">"))
        raise self.error("expected an expression")

    def parse_twist(self) -> list[tuple[int, Expr]]:
        self.expect("ident")  # the 'A'
        exponent = 1
        token = self.peek()
        if token is not None and token.kind == "^":
            self.advance()
            exponent = int(self.expect("int").text)
            if exponent < 0:
                raise self.error("twist powers must be nonnegative")
        self.expect("(")
        arg = self.parse_expr()
        self.expect(")")
        return _twist(exponent, arg)

    def parse_args(self, count: int, opener: str, closer: str) -> list[list[tuple[int, Expr]]]:
        self.expect(opener)
        args = [self.parse_expr()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(self.parse_expr())
        self.expect(closer)
        return args


def _call(op: str, *args: list[tuple[int, Expr]]) -> list[tuple[int, Expr]]:
    """``op`` distributed over its arguments' sums: one call per choice of a
    pair from each argument, in ``itertools.product`` order, so the call of
    every argument's first pair comes first."""
    return [
        (math.prod(s for s, _ in pick), Call(op, tuple(expr for _, expr in pick))) for pick in itertools.product(*args)
    ]


def _twist(power: int, arg: list[tuple[int, Expr]]) -> list[tuple[int, Expr]]:
    return [(s, Twist(power, expr)) for s, expr in arg]


def build_identity(name: str, variables: tuple[str, ...], terms: tuple[Term, ...], source: str = "") -> Identity:
    """Assemble an identity, enforcing multilinearity across all terms.

    Every term must use each variable exactly once and no other variable, and
    its sign exponent may only mention the variables.  The engine's basis-tuple
    verdict is complete only under this precondition.  An error names the
    identity by ``name``, or by its ``source`` text if it has no name.
    """
    label = name or source
    for position, term in enumerate(terms):
        counts: dict[str, int] = {}
        variable_counts(term.expr, counts)
        for var in variables:
            occurrences = counts.get(var, 0)
            if occurrences != 1:
                raise MultilinearityError(
                    f"variable {var!r} occurs {occurrences} times in term {position + 1} "
                    f"of {label!r}; every term must use each variable exactly once"
                )
        unknown = (set(counts) | term.sign.variables) - set(variables)
        if unknown:
            raise MultilinearityError(
                f"term {position + 1} of {label!r} uses unknown variables {sorted(unknown)}"
            )
    return Identity(name=name, variables=tuple(variables), terms=tuple(terms))


def parse_identity(text: str, name: str = "") -> Identity:
    """Parse identity text, enforcing multilinearity across all terms."""
    terms = tuple(Term(coeff, sign, expr) for coeff, sign, expr in _Parser(text).parse_identity())
    counts: dict[str, int] = {}
    for term in terms:
        variable_counts(term.expr, counts)
    return build_identity(name, tuple(counts), terms, source=text)
