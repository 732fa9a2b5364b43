"""The package is plain Python: no compiled build step, no generated code,
and one eigensolver.

Only the modules themselves and the JSON schemas ship in src/zdgspectra; a
C extension, its .pyx source or its generated .c file would fail here.
Every eigenvalue goes through `eig.dense_eigenvalues`: a module that calls
a `linalg.eig*` routine itself, or a second solver in `eig`, fails here.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zdgspectra"


def test_package_holds_only_python_and_schemas():
    files = [
        p.relative_to(PACKAGE)
        for p in PACKAGE.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    assert files
    strays = [
        str(f)
        for f in files
        if not (len(f.parts) == 1 and f.suffix == ".py")
        and not (f.parent == Path("schemas") and f.suffix == ".json")
    ]
    assert strays == []


def linalg_eig_uses(path):
    """The `linalg.eig*` attributes a module reads and the names it imports
    from a `linalg` module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("eig")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            out += [alias.name for alias in node.names]
    return out


def test_only_eig_calls_the_eigensolver():
    uses = {p.name: linalg_eig_uses(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in uses.items() if u} == {"eig.py": ["eigvalsh"]}
    tree = ast.parse((PACKAGE / "eig.py").read_text())
    defined = [
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert defined == ["_prepare", "dense_eigenvalues"]
