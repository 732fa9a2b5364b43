"""The package is plain Python: no compiled build step, no generated code.

Only the modules themselves and the JSON schemas ship in src/zdgspectra; a
C extension, its .pyx source or its generated .c file would fail here.
"""
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
