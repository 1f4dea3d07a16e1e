import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest
from hypothesis import strategies as st

from umatch import GF, StoredCsMatrix


@pytest.fixture
def rng():
    return random.Random(2024)


def random_stored(rnd: random.Random, p: int, m: int, n: int, density: float = 0.45) -> StoredCsMatrix:
    f = GF(p)
    dense = [
        [rnd.randrange(1, p) if rnd.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    return StoredCsMatrix.from_dense(f, dense)


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def clique_inputs(draw):
    """A symmetric matrix on a small grid of values (so births tie), with
    some nonzero diagonal entries, a threshold that may cut it, a top
    dimension up to 3 and a field."""
    n = draw(st.integers(1, 7))
    d = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            d[a, b] = d[b, a] = draw(st.sampled_from(GRID))
        d[a, a] = draw(st.sampled_from((0.0, 0.0, 0.25, 0.5)))
    threshold = draw(st.sampled_from(GRID))
    return d, draw(st.integers(0, 3)), threshold, draw(st.sampled_from([2, 3, 7]))


@st.composite
def image_inputs(draw):
    """A 2d or 3d pixel array on the same grid of values, so births tie."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    if len(shape) == 3:
        shape = [min(s, 3) for s in shape]
    values = draw(st.lists(st.sampled_from(GRID), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape)
