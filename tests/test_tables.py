import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim.errors import ConfigError
from scarsim.tables import csv_text, read_csv

_CELLS = st.one_of(st.text(), st.text(alphabet=',"\r\n x'),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.text(), min_size=n, max_size=n),
    st.lists(st.lists(_CELLS, min_size=n, max_size=n), max_size=6))))
@settings(deadline=None, max_examples=300)
def test_read_csv_inverts_csv_text(table):
    """Every text cell, quotes, commas, CR and LF included, comes back as
    written, and every finite float bit for bit."""
    header, rows = table
    back_header, back_rows = read_csv(csv_text(header, rows), "test")
    assert back_header == header
    assert len(back_rows) == len(rows)
    for back, row in zip(back_rows, rows):
        for text, value in zip(back, row, strict=True):
            if isinstance(value, float):
                assert float(text).hex() == value.hex()
            else:
                assert text == value


@pytest.mark.parametrize("row,cells", [("4", 1), ("4,5,6", 3)], ids=["short", "long"])
def test_row_length_refusal_names_line_and_counts(row, cells):
    """The line counts blank lines and every line of a quoted cell."""
    text = f'a,b\r\n1,2\r\n\r\n"x\r\ny",3\r\n{row}\r\n'
    with pytest.raises(ConfigError) as err:
        read_csv(text, "test")
    assert str(err.value) == f"test file: line 6 has {cells} cell(s) but the header has 2"
