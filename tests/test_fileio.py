"""The text-line reader and JSON decoding of kgrank.fileio."""

import re

import pytest

from kgrank.errors import ParseError
from kgrank.fileio import load_json, read_lines


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
