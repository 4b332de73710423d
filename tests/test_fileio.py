"""The text-line reader, its field rule and JSON decoding of kgrank.fileio."""

import re

import pytest

from kgrank.errors import ParseError, ValidationError
from kgrank.fileio import check_field, load_json, read_lines


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_lines_end_at_lf_crlf_and_cr_only(tmp_path, end):
    """U+2028, U+0085 and form feed stay inside their line; blank and
    comment lines are skipped but counted."""
    path = tmp_path / "f.txt"
    path.write_bytes(end.join(["a\u2028b\x85c\x0cd", "", "  # comment", " \t", "e\t"]).encode())
    assert list(read_lines(path, "run", comments=True)) == [(1, "a\u2028b\x85c\x0cd"),
                                                            (5, "e\t")]
    assert list(read_lines(path, "corpus", comments=False))[1] == (3, "  # comment")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_json_byte_that_is_not_utf8_names_its_line(tmp_path, end):
    path = tmp_path / "config.json"
    path.write_bytes(end.join(['{"a": 1,', "", '"b": "caf\xe9"}']).encode("latin-1"))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: model config is not UTF-8"):
        load_json(path, "model config")
    path.write_bytes(end.join(['{"a": 1,', "", '"b": "caf\xe9"}']).encode())
    assert load_json(path, "model config") == {"a": 1, "b": "caf\xe9"}


@pytest.mark.parametrize("value,is_field", [
    ("d1", True), ("q#1", True), ("caf\u00e9", True), ("", False), ("d 1", False),
    ("d\t1", False), ("d\r1", False), ("d\u2028", False), ("\x85d", False),
    ("a\u00a0b", False), ("\x1fd", False), ("#q1", False),
], ids=["plain", "inner #", "non-ASCII", "empty", "space", "tab", "CR", "U+2028", "U+0085",
        "no-break space", "unit separator", "leading #"])
def test_a_value_passes_the_field_rule_iff_it_reads_back_as_one_field(tmp_path, value,
                                                                      is_field):
    """A run line whose first field is value, read by read_lines and split
    as a run line is, gives value back exactly when check_field passes it."""
    path = tmp_path / "run.txt"
    path.write_bytes(f"{value} Q0 d 1 0.5 t\n".encode())
    read = [line.split() for _, line in read_lines(path, "run", comments=True)]
    assert (read == [[value, "Q0", "d", "1", "0.5", "t"]]) == is_field
    if is_field:
        assert check_field(value, "query id") == value
    else:
        with pytest.raises(ValidationError, match=r"^query id .* is not a record field"):
            check_field(value, "query id")
