import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from superbol import (
    BinaryStructure,
    Convention,
    Element,
    EvenMap,
    HomBinaryTernary,
    HomSuperalgebra,
    SuperSpace,
    TernaryStructure,
    builtin_example,
    plus_algebra,
)
from superbol.dsl import Call, SignPoly, Term, Twist, Var, build_identity
from superbol.engine import check, evaluate_on_elements


def bench_families():
    """The benchmark's generated known-truth families, ``bench/families.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_env() -> dict:
    """The environment of a child interpreter that imports superbol from ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter with ``args`` as ``sys.argv[1:]``; the
    last line it prints is JSON, returned parsed."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def ex51():
    return builtin_example("example_5_1")


@pytest.fixture
def ex51_bol():
    return builtin_example("example_5_1_bol")


@pytest.fixture
def ex31():
    return builtin_example("example_3_1")


@pytest.fixture
def plus51(ex51):
    return plus_algebra(ex51, Convention.UNIT)


def make_grassmann() -> HomSuperalgebra:
    """Associative supercommutative product on one even and one odd generator."""
    space = SuperSpace.build([("one", 0), ("theta", 1)])
    binary = BinaryStructure.from_table(
        space,
        {
            ("one", "one"): {"one": 1},
            ("one", "theta"): {"theta": 1},
            ("theta", "one"): {"theta": 1},
        },
    )
    return HomSuperalgebra.untwisted(binary)


@pytest.fixture
def grassmann():
    return make_grassmann()


def random_element(space: SuperSpace, rng: random.Random) -> Element:
    coords = {
        i: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for i in range(space.dim)
    }
    return Element(space, coords)


def oracle_agreement(binding, identities, seed: int, samples: int = 100, label: str = ""):
    """Compare the basis-tuple verdict of every identity with seeded random
    general-element evaluation; returns [(identity, agree, verdict)].

    ``label`` (a suite name, say) is part of each identity's random seed.
    """
    results = []
    for identity in identities:
        item = check(binding, identity)
        rng = random.Random((seed, label, identity.name).__repr__())
        nonzero_seen = False
        for _ in range(samples):
            assignment = {var: random_element(binding.space, rng) for var in identity.variables}
            if not evaluate_on_elements(identity, binding, assignment).is_zero():
                nonzero_seen = True
        agree = (not nonzero_seen) if item.passed else nonzero_seen
        results.append((identity.name, agree, item.passed))
    return results


_scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def graded_structures(draw, min_dim=1, binary_densities=(0, 30, 70), ternary_densities=(0, 10, 40)):
    """A random (p|q) space of dim ``min_dim``..4 with a sparse
    grading-respecting binary and ternary tensor and a random even twist,
    scalars of denominator 1..3.  Each tensor holds an entry at a key with a
    percent chance drawn from its ``densities``."""
    parities = draw(st.lists(st.integers(0, 1), min_size=min_dim, max_size=4))
    space = SuperSpace.build((f"e{i}", parity) for i, parity in enumerate(parities))
    dim = space.dim

    def vector(parity):
        coords = {t: draw(_scalars) for t in range(dim) if space.parity(t) == parity and draw(st.booleans())}
        return Element(space, coords)

    def tensor(arity, density):
        return {
            key: vector(sum(map(space.parity, key)) % 2)
            for key in itertools.product(range(dim), repeat=arity)
            if draw(st.integers(0, 99)) < density
        }

    binary = BinaryStructure(space, tensor(2, draw(st.sampled_from(binary_densities))))
    ternary = TernaryStructure(space, tensor(3, draw(st.sampled_from(ternary_densities))))
    twist = EvenMap(space, tuple(
        tuple(draw(_scalars) if space.parity(t) == space.parity(s) and draw(st.booleans()) else 0 for s in range(dim))
        for t in range(dim)
    ))
    return HomBinaryTernary(binary, ternary, twist)


_ARITIES = {"*": 2, "[]": 2, "o": 2, "{}": 3, "<>": 3}
_NAMES = ("x", "y", "z", "u", "v")


@st.composite
def random_identities(draw):
    """A multilinear identity in 2..5 variables over ``*``, ``[]``, ``o``,
    ``{}`` and ``<>``.

    Each term is a random tree over a permutation of the variables, with a
    twist power 0..3 at any node, at times nested in a second one, random
    sign monomials and a coefficient of denominator 1..3.  Some identities hold in every structure: the drawn
    terms followed by their negations in random order, or a drawn term
    ``e`` as ``A^a(A^b(e)) - A^(a+b)(e)``.  Some are skew-closed, a drawn
    term ``e`` plus ``+-(-1)^{p.q}`` times ``e`` with two variables p and q
    swapped, so swapping p and q maps the identity to plus or minus itself.
    Most are left free.
    """
    variables = _NAMES[:draw(st.integers(2, 5))]

    def tree(names):
        if len(names) == 1:
            expr = Var(names[0])
        else:
            op = draw(st.sampled_from([op for op, arity in _ARITIES.items() if arity <= len(names)]))
            cuts = draw(st.lists(st.integers(1, len(names) - 1), min_size=_ARITIES[op] - 1,
                                 max_size=_ARITIES[op] - 1, unique=True))
            bounds = [0, *sorted(cuts), len(names)]
            expr = Call(op, tuple(tree(names[a:b]) for a, b in zip(bounds, bounds[1:])))
        if draw(st.integers(0, 3)) == 0:
            if draw(st.booleans()):
                expr = Twist(draw(st.integers(0, 3)), expr)
            expr = Twist(draw(st.integers(0, 3)), expr)
        return expr

    def term():
        monomials = draw(st.sets(st.frozensets(st.sampled_from(variables), max_size=2), max_size=3))
        coefficient = draw(st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3)))
        return Term(coefficient, SignPoly(frozenset(monomials)), tree(list(draw(st.permutations(variables)))))

    closing = draw(st.sampled_from(("free", "negate", "free", "compose", "swap")))
    if closing == "swap":
        e = term()
        p, q = draw(st.permutations(variables))[:2]
        swapped = SignPoly(frozenset(frozenset(_swapped_name(v, p, q) for v in mono) for mono in e.sign.monomials))
        terms = [e, Term(draw(st.sampled_from((1, -1))) * e.coefficient,
                         swapped + SignPoly(frozenset({frozenset({p, q})})), _swapped(e.expr, p, q))]
    elif closing == "compose":
        e, a = term(), draw(st.integers(1, 3))
        b = draw(st.integers(0, 3 - a))
        terms = [
            Term(e.coefficient, e.sign, Twist(a, Twist(b, e.expr))),
            Term(-e.coefficient, e.sign, Twist(a + b, e.expr)),
        ]
    else:
        terms = [term() for _ in range(draw(st.integers(1, 3)))]
    if closing == "negate":
        # each term's negation, by its coefficient or by a constant sign monomial
        negations = [
            Term(-t.coefficient, t.sign, t.expr) if draw(st.booleans())
            else Term(t.coefficient, t.sign + SignPoly(frozenset({frozenset()})), t.expr)
            for t in terms
        ]
        terms += draw(st.permutations(negations))
    return build_identity("random", variables, tuple(terms))


def _swapped_name(name: str, p: str, q: str) -> str:
    return {p: q, q: p}.get(name, name)


def _swapped(expr, p: str, q: str):
    """``expr`` with the variables ``p`` and ``q`` exchanged."""
    if isinstance(expr, Var):
        return Var(_swapped_name(expr.name, p, q))
    if isinstance(expr, Twist):
        return Twist(expr.power, _swapped(expr.arg, p, q))
    return Call(expr.op, tuple(_swapped(arg, p, q) for arg in expr.args))
