"""Line counts of every module of src/ffperm, split by kind.

Each line is one of: docstring (a line of a module, class or function
docstring, blank lines inside it included), comment (only a comment),
blank, or code (everything else).  Prints one row per module and a total.

    python tools/src_size.py [DIR]    # DIR defaults to src/ffperm
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def count(source: str) -> dict[str, int]:
    """Line counts of one module's source, by kind."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and lines[tok.start[0] - 1].lstrip().startswith("#")}
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - doc
    c = {"total": len(lines), "docstring": len(doc), "comment": len(comment - doc),
         "blank": len(blank)}
    c["code"] = c["total"] - c["docstring"] - c["comment"] - c["blank"]
    return c


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "ffperm")
    rows = [(path.name, count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS))
    for name, c in rows:
        print(f"{name:<{width}}" + "".join(f"{c[k]:>11,}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
