"""Every Python file of the project parses as Python 3.10, the oldest
version ``pyproject.toml`` supports, so syntax new in 3.11 (``except*``,
for one) fails here and not only on a 3.10 interpreter."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(path for top in ("src", "tests", "bench", "tools")
               for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"),
                                     recursive=True))


def test_the_project_has_python_files():
    assert any(path.endswith(os.path.join("freestein", "states.py"))
               for path in FILES)


@pytest.mark.parametrize("path", FILES,
                         ids=[os.path.relpath(p, ROOT) for p in FILES])
def test_parses_as_python_3_10(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def test_3_11_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
