"""Line counts of the package source: each module's total and code lines.

A code line is one that is not blank, not a comment and not part of a
docstring (the string that opens a module, class or function). Run from the
repository root:

    PYTHONPATH=src python -m tests.src_lines
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sparseppc"


def code_lines(text: str) -> int:
    """How many lines of the Python source text are code."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


def main() -> None:
    totals = [0, 0]
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        counts = (len(text.splitlines()), code_lines(text))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:16} {counts[0]:5} {counts[1]:5}")
    print(f"{'total':16} {totals[0]:5} {totals[1]:5}")


if __name__ == "__main__":
    main()
