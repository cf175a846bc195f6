from hypothesis import given, settings
from hypothesis import strategies as st

from quasigor import linalg
from quasigor.fields import QQ, PrimeField

import oracles

F7 = PrimeField(7)


@st.composite
def _vectors(draw):
    field = draw(st.sampled_from([QQ, F7]))
    length = draw(st.integers(0, 4))
    entries = st.lists(st.integers(-2, 2), min_size=length, max_size=length)
    rows = draw(st.lists(entries, max_size=6))
    return field, [[field.scalar(x) for x in row] for row in rows]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_vectors())
def test_dependencies_pivots_and_relations(case):
    field, vectors = case
    pivots, relations = linalg.dependencies(vectors, field)
    assert pivots == linalg.independent(vectors, field)
    assert len(pivots) + len(relations) == len(vectors)
    free = [j for j in range(len(vectors)) if j not in pivots]
    for j, rel in zip(free, relations):
        assert rel[j] == field.one
        assert all(c == field.zero for c in rel[j + 1 :])
        for coord in range(len(vectors[0])):
            total = field.zero
            for c, vec in zip(rel, vectors):
                total = field.add(total, field.mul(c, vec[coord]))
            assert total == field.zero


def test_kernel_basis_is_the_relations_of_the_columns():
    rows = [[QQ.scalar(x) for x in row] for row in ([1, 2, 0, 3], [0, 0, 1, 4])]
    assert linalg.kernel_basis(rows, QQ) == [
        [QQ.scalar(-2), QQ.one, QQ.zero, QQ.zero],
        [QQ.scalar(-3), QQ.zero, QQ.scalar(-4), QQ.one],
    ]


@st.composite
def _matrices(draw):
    field = draw(st.sampled_from([QQ, PrimeField(2), F7, PrimeField(32003)]))
    if field == QQ:
        scalar = st.builds(field.scalar, st.integers(-9, 9), st.integers(1, 6))
    else:
        scalar = st.builds(field.scalar, st.integers(-40, 40))
    length = draw(st.integers(0, 8))
    vectors = draw(st.lists(st.lists(scalar, min_size=length, max_size=length), max_size=10))
    # rank-deficient draws: some vectors combine two earlier ones
    for k in range(1, len(vectors)):
        if draw(st.booleans()):
            a, b = draw(scalar), draw(scalar)
            other = vectors[draw(st.integers(0, k - 1))]
            vectors[k] = [field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(other, vectors[k - 1])]
    return field, vectors


def _typed(relations):
    return [[(type(c), c) for c in rel] for rel in relations]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_matrices())
def test_elimination_agrees_with_row_reduction_oracle(case):
    field, vectors = case
    pivots, relations = oracles.dependencies_by_row_reduction(vectors, field)
    got_pivots, got_relations = linalg.dependencies(vectors, field)
    assert got_pivots == pivots
    assert _typed(got_relations) == _typed(relations)
    assert linalg.independent(vectors, field) == pivots
    assert linalg.rank(vectors, field) == oracles.rank(vectors, field)
    kernel = oracles.dependencies_by_row_reduction(list(zip(*vectors)), field)[1]
    assert _typed(linalg.kernel_basis(vectors, field)) == _typed(kernel)
