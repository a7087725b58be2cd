"""The public surface: graphzeta.__all__ and the names the README lists."""

import re
from pathlib import Path

import graphzeta

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    names = graphzeta.__all__
    missing = [n for n in names if not hasattr(graphzeta, n)]
    assert not missing
    assert len(set(names)) == len(names)
    # the parenthesised list of the "Lower-level pieces" sentence
    text = README.read_text()
    start = text.index("Lower-level pieces (")
    listed = re.findall(r"`([^`]+)`", text[start:text.index(")", start)])
    assert listed
    assert [n for n in listed if n not in names] == []
