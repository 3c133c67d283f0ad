from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import hnf_rows_euclid
from polyabiquad.linalg import hnf_rows

_ENTRIES = st.one_of(st.integers(-6, 6), st.integers(-10**6, 10**6))


@st.composite
def integer_rows(draw):
    """(rows, dim): up to 8 rows of width 1-6, with a zero row or a rational
    combination of two rows mixed in to make the span rank-deficient."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=dim, max_size=dim), max_size=8))
    if rows and draw(st.booleans()):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows.insert(draw(st.integers(0, len(rows))), [s * a + t * b for a, b in zip(x, y)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * dim)
    return rows, dim


@settings(max_examples=400, deadline=None)
@given(integer_rows())
def test_hnf_rows_matches_the_euclid_reference(case):
    rows, dim = case
    before = [list(r) for r in rows]
    assert hnf_rows(rows, dim) == hnf_rows_euclid(rows, dim)
    assert rows == before  # the input rows are not modified
