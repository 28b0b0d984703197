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
abbreviates ``((a*b)*A(c)) - (A(a)*(b*c))``.  In a sign exponent, ``x.y``
denotes the product of the parities of the values bound to x and y, and
``x`` alone denotes the parity of x; exponents are read mod 2.
``SignPoly.parse`` reads a bare exponent by the same ``signpoly`` rule.

Every identity must be multilinear: each variable of the identity occurs
exactly once in every term.  Over a field of characteristic 0 this makes
verification on homogeneous basis tuples complete, which is the engine's
stated precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

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


@dataclass(frozen=True)
class SignPoly:
    """A GF(2) polynomial of degree <= 2 in variable parities.

    ``monomials`` is a set of frozensets of variable names: the empty set is
    the constant 1, singletons are bare parities, pairs are parity products.
    ``(-1)**evaluate(...)`` is the sign the polynomial contributes.
    """

    monomials: frozenset[frozenset[str]] = field(default_factory=frozenset)

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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Twist:
    power: int
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple["Expr", ...]


Expr = Union[Var, Twist, Call]


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    sign: SignPoly
    expr: Expr


@dataclass(frozen=True)
class Identity:
    """A parsed multilinear identity, asserted to equal zero."""

    name: str
    variables: tuple[str, ...]
    terms: tuple[Term, ...]
    source: str = ""

    @property
    def arity(self) -> int:
        return len(self.variables)

    def max_twist_power(self) -> int:
        deepest = 0
        for term in self.terms:
            deepest = max(deepest, _max_twist(term.expr))
        return deepest


def _max_twist(expr: Expr) -> int:
    if isinstance(expr, Var):
        return 0
    if isinstance(expr, Twist):
        return max(expr.power, _max_twist(expr.arg))
    deepest = 1 if expr.op == ASSOC else 0
    for arg in expr.args:
        deepest = max(deepest, _max_twist(arg))
    return deepest


def variable_counts(expr: Expr, counts: dict[str, int]) -> None:
    """Add each variable's number of occurrences in ``expr`` to ``counts``."""
    if isinstance(expr, Var):
        counts[expr.name] = counts.get(expr.name, 0) + 1
    elif isinstance(expr, Twist):
        variable_counts(expr.arg, counts)
    else:
        for arg in expr.args:
            variable_counts(arg, counts)


def leaf_weights(expr: Expr, twist_weight: int) -> list[dict[str, int]]:
    """Each variable's weight in each monomial of ``expr``, ``as`` expanded.

    ``as(a,b,c)`` expands to ``(a*b)*A(c)`` and ``A(a)*(b*c)``.  A variable's
    weight sums, along its path from the root, 1 per binary argument, 2 per
    ternary argument and ``twist_weight`` per power of the twist.  A Hom
    identity can hold in a free multiplicative Hom-algebra only if all of its
    monomials give each variable one weight.
    """
    if isinstance(expr, Var):
        return [{expr.name: 0}]
    if isinstance(expr, Twist):
        shift = expr.power * twist_weight
        return [{v: w + shift for v, w in m.items()} for m in leaf_weights(expr.arg, twist_weight)]
    if expr.op == ASSOC:
        a, b, c = expr.args
        left = Call(STAR, (Call(STAR, (a, b)), Twist(1, c)))
        right = Call(STAR, (Twist(1, a), Call(STAR, (b, c))))
        return leaf_weights(left, twist_weight) + leaf_weights(right, twist_weight)
    step = len(expr.args) - 1
    monomials: list[dict[str, int]] = [{}]
    for arg in expr.args:
        monomials = [{**m, **{v: w + step for v, w in n.items()}}
                     for m in monomials for n in leaf_weights(arg, twist_weight)]
    return monomials


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | one of the punctuation characters
    text: str
    position: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
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
        terms = [self.parse_signedterm(first=True)]
        while True:
            token = self.peek()
            if token is None:
                raise self.error("missing '= 0'")
            if token.kind == "=":
                break
            if token.kind not in "+-":
                raise self.error("expected '+', '-', or '='")
            self.advance()
            coeff, sign, expr = self.parse_signedterm(first=False)
            if token.kind == "-":
                coeff = -coeff
            terms.append((coeff, sign, expr))
        self.expect("=")
        zero = self.expect("int")
        if zero.text != "0":
            raise IdentitySyntaxError("identities must be equated to 0", zero.position)
        if self.peek() is not None:
            raise self.error("trailing input after '= 0'")
        return terms

    def parse_signedterm(self, first: bool) -> tuple[Fraction, SignPoly, Expr]:
        coeff = Fraction(1)
        if first and self.peek() is not None and self.peek().kind in "+-":
            if self.advance().kind == "-":
                coeff = -coeff
        token = self.peek()
        if token is not None and token.kind == "int":
            coeff *= self.parse_rational()
        sign = self.try_parse_sign_base()
        expr = self.parse_expr()
        return coeff, sign, expr

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

    def parse_expr(self) -> Expr:
        token = self.peek()
        if token is None:
            raise self.error("expected an expression")
        if token.kind == "ident":
            if token.text == "A":
                return self.parse_twist()
            if token.text == ASSOC:
                self.advance()
                args = self.parse_args(3, "(", ")")
                return Call(ASSOC, args)
            if token.text == JORDAN:
                self.advance()
                args = self.parse_args(2, "(", ")")
                return Call(JORDAN, args)
            self.advance()
            return Var(token.text)
        if token.kind == "(":
            self.advance()
            left = self.parse_expr()
            self.expect("*")
            right = self.parse_expr()
            self.expect(")")
            return Call(STAR, (left, right))
        if token.kind == "[":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return Call(BRACKET, (left, right))
        if token.kind == "{":
            args = self.parse_args(3, "{", "}")
            return Call(BRACES, args)
        if token.kind == "<":
            args = self.parse_args(3, "<", ">")
            return Call(ANGLE, args)
        raise self.error("expected an expression")

    def parse_twist(self) -> Expr:
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
        return Twist(exponent, arg)

    def parse_args(self, count: int, opener: str, closer: str) -> tuple[Expr, ...]:
        self.expect(opener)
        args = [self.parse_expr()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(self.parse_expr())
        self.expect(closer)
        return tuple(args)


def build_identity(name: str, variables: tuple[str, ...], terms: tuple[Term, ...], source: str = "") -> Identity:
    """Assemble an identity, enforcing multilinearity across all terms.

    Every term must use each variable exactly once and no other variable, and
    its sign exponent may only mention the variables.  The engine's basis-tuple
    verdict is complete only under this precondition.
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
    return Identity(name=name, variables=tuple(variables), terms=tuple(terms), source=source)


def parse_identity(text: str, name: str = "") -> Identity:
    """Parse identity text, enforcing multilinearity across all terms."""
    terms = tuple(Term(coeff, sign, expr) for coeff, sign, expr in _Parser(text).parse_identity())
    counts: dict[str, int] = {}
    for term in terms:
        variable_counts(term.expr, counts)
    return build_identity(name, tuple(counts), terms, source=text)
