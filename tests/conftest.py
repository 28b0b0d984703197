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
def graded_structures(draw):
    """A random (p|q) space of dim <= 4 with a sparse grading-respecting binary
    and ternary tensor and a random even twist, scalars of denominator 1..3."""
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
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

    binary = BinaryStructure(space, tensor(2, draw(st.sampled_from((0, 30, 70)))))
    ternary = TernaryStructure(space, tensor(3, draw(st.sampled_from((0, 10, 40)))))
    twist = EvenMap(space, tuple(
        tuple(draw(_scalars) if space.parity(t) == space.parity(s) and draw(st.booleans()) else 0 for s in range(dim))
        for t in range(dim)
    ))
    return HomBinaryTernary(binary, ternary, twist)
