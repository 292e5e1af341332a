"""README stays readable as plain text: a fact too long for one line
belongs in the prose sections, not in a table cell."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_LINE = 300   # characters


def test_no_readme_line_is_over_the_limit():
    long = [(number, len(line)) for number, line in
            enumerate(README.read_text(encoding="utf-8").splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, f"README lines over {MAX_LINE} characters (line, length): {long}"
