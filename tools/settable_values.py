"""Count the settable values of src/afmass: defaulted parameters of every
function plus the fields of every dataclass.

    python tools/settable_values.py [CEILING]

prints the count and exits 1 when it exceeds CEILING."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "afmass"
total = 0
for path in sorted(SRC.rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            total += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            total += sum(isinstance(s, ast.AnnAssign) for s in node.body)
print(total)
sys.exit(len(sys.argv) > 1 and total > int(sys.argv[1]))
