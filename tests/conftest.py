import random
from fractions import Fraction

import pytest

from superbol import (
    BinaryStructure,
    Convention,
    Element,
    HomSuperalgebra,
    SuperSpace,
    builtin_example,
    plus_algebra,
)
from superbol.engine import check, evaluate_on_elements


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
