"""The package is plain Python: no compiled build step, no generated code,
and one eigensolver.

Only the modules themselves and the JSON schemas ship in src/zdgspectra; a
C extension, its .pyx source or its generated .c file would fail here.
Every eigenvalue goes through `eig.dense_eigenvalues`: a module that calls
a `linalg.eig*` routine itself, or a second solver in `eig`, fails here.
Values computed once per object or per argument use `functools.cached_property`
or `functools.cache`: a hand-rolled `getattr(self, "_name", None)` memo
fails here, with one exception named in the test.  The ring tables and
the graph route's build and cap check read element indices and closed
counts, never an enumeration of payloads, and each ring kind turns
indices into payloads in one method, `decode`.  The matrix ring's
dot-product tables call no Gaussian elimination.  Keys are numbered in
one routine, `rings.first_seen_ids`, and partitions built in one,
`classes._partition`; the tests' references in tests/reference.py call
neither, and the package defines none of their names.  The one-factor
and field-product degrees, sizes and class counts read the semisimple
formulas of `counts`, and the Z_n divisor classes come from one lattice,
`Zn._divisor_classes`, which the class table and `spectra.zn_profile`
both read.  Only `cli.main` writes a report as JSON or CSV;
the verbs' handlers return theirs.  Each CLI input has one spelling: a
`cli.py` that reads the environment or an exception's `__cause__`, or a
`--sweep` parser that builds a ring from a spec of its own, fails here.
The flavor names are listed once, as the keys of `spectra.FLAVORS`: the
CLI's choices read them, and the schema's one flavor def must equal them.
The relations are associate and neighborhood, in the `--relation`
choices, the schema's enums and the names `classes_for` accepts; equal
annihilators give the associate classes, so a third relation fails here.
A spectrum meets the dense oracle in one place, `spectra.verify_ring`: a
second caller of `brute_spectrum`, or a CLI handler that compares spectra
itself, fails here, and so does a tolerance or flavor parameter on
`verify_ring` or a `--tol` or `--flavor` flag on `zdg verify`.  The
lemma checks have fixed gates too: a `tol` parameter on `duplicate_lift`
or on the references `fiedler_check`, `check_shift_lemma` or
`boolean_pairing_report`, or a `--tol` flag on `zdg lift`, fails here.  `cli.py` reads no clock, so
that stdout is deterministic: a `time` or `datetime` import or a
`perf_counter` call there fails here.  The
graph route has one cap, on its vertex count, which bounds |R| too: a
module that names an element cap fails here.  Each name has one import
path, from the module that defines it: an `__init__.py` that binds a name
other than `__version__`, or an import in src/, tests/ or perfbench/ of a
name that its module does not define, fails here.  The package holds what
`zdg` and the benchmark run: a function, class or method that no code in
src/ or perfbench/ and no `zdg` entry point names fails here, unless it
is listed with its reason; a helper that only the tests read belongs in
tests/reference.py.
"""
import argparse
import ast
import json
import re
from pathlib import Path

from zdgspectra import cli
from zdgspectra.spectra import FLAVORS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zdgspectra"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


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


def getattr_memos(path):
    """The names read by `getattr(self, "<name>", None)` in a module."""
    return [
        node.args[1].value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) == 3
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[2], ast.Constant)
        and node.args[2].value is None
    ]


def test_memos_use_functools():
    memos = {p.name: getattr_memos(p) for p in sorted(PACKAGE.glob("*.py"))}
    # Ring.elements keeps a plain `_elements` attribute because the benchmark's
    # tracer reads it with getattr to count fresh enumerations; a cached
    # property there would enumerate inside the tracer.
    assert {name: m for name, m in memos.items() if m} == {"rings.py": ["_elements"]}


# the ring tables and the index decoders they share; see the rings docstring
INDEX_READERS = {"zero_products", "_zero_rows", "associate_keys", "_unit_mask", "_right_kernels", "_factor_indices"}
PAYLOAD_READS = {"fromiter", "chain", "elements", "_elements"}


def payload_reads(path, readers, names):
    """(function, name) for every use of a name in `names`, as a call or an
    attribute, inside a function of `readers`, and the names of all
    functions the module defines."""
    tree = ast.parse(path.read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    reads = [
        (fn.name, name)
        for fn in functions
        if fn.name in readers
        for node in ast.walk(fn)
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
        if isinstance(node, (ast.Attribute, ast.Name)) and name in names
    ]
    return reads, {fn.name for fn in functions}


def test_ring_tables_read_element_indices():
    # a table that flattened payloads (np.fromiter over itertools.chain) or
    # read elements() would decode an element a second way
    reads, defined = payload_reads(PACKAGE / "rings.py", INDEX_READERS, PAYLOAD_READS)
    assert INDEX_READERS <= defined
    assert reads == []


# the graph route's build, which checks its cap; see the graph docstring
GRAPH_BUILDERS = {"build_zdg", "_build"}
ENUMERATIONS = {"elements", "_elements", "decode", "zero_divisors", "units", "vertices"}


def test_graph_build_reads_element_indices():
    # a build or a cap check that enumerated the payloads would keep all
    # |R| of them on the ring for its lifetime, where indices and closed
    # counts are all the graph route needs
    reads, defined = payload_reads(PACKAGE / "graph.py", GRAPH_BUILDERS, ENUMERATIONS)
    assert GRAPH_BUILDERS <= defined
    assert reads == []


def test_one_decoder():
    # a second decoder (one index per call, or an enumeration of its own)
    # would state the index format and the element order a second time
    rings = PACKAGE / "rings.py"
    tree = ast.parse(rings.read_text())
    assert defined_names(tree, everywhere=True) & {"element", "_enumerate", "_split"} == set()
    owners = [
        cls.name
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "decode"
    ]
    assert owners == ["Ring", "MatRing", "ProductRing"]
    assert callers(rings, "product") == {"_poly_is_irreducible", "_smallest_irreducible", "_all_subspaces"}
    for module, reader in (("graph.py", "vertices"), ("spectra.py", "labels")):
        assert callers(PACKAGE / module, "decode") == {reader}, module
        assert callers(PACKAGE / module, "element") == set(), module


# the partition readers that take `ClassPartition.cell_of` as is
ARRAY_READERS = {
    PACKAGE / "spectra.py": {"decompose"},
    REFERENCE: {"check_relation_agreements", "partitions_equal"},
}


def attribute_reads(path, functions, attr):
    """The names of the functions in `functions` that the module defines,
    and (function, line) for every read of the attribute `attr` in them."""
    tree = ast.parse(path.read_text())
    found = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in functions]
    reads = [
        (fn.name, node.lineno)
        for fn in found
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]
    return {fn.name for fn in found}, reads


def test_partition_readers_take_the_id_array():
    # the member lists of `ClassPartition.classes` are a view for printing
    # and the tests: reading them would flatten the classes back into arrays
    for path, functions in ARRAY_READERS.items():
        defined, reads = attribute_reads(path, functions, "classes")
        assert defined == functions, path.name
        assert reads == [], path.name
    # the relation checks compare the id arrays themselves
    _, reads = attribute_reads(REFERENCE, {"check_relation_agreements"}, "cell_of")
    assert reads


# the matrix tables that decide xy = 0 through `MatRing._dot`
DOT_PRODUCT_READERS = {"_class_table", "_kills"}
ELIMINATIONS = {"gf_rref", "gf_nullspace", "gf_span_contains"}


def test_matrix_tables_run_no_elimination():
    # the eliminations are the tests' references; a table that called one
    # would decide xy = 0 a second way
    tree = ast.parse((PACKAGE / "rings.py").read_text())
    matring = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "MatRing")
    found = [n for n in matring.body if isinstance(n, ast.FunctionDef) and n.name in DOT_PRODUCT_READERS]
    assert {fn.name for fn in found} == DOT_PRODUCT_READERS
    names = [
        (fn.name, name)
        for fn in found
        for node in ast.walk(fn)
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
        if isinstance(node, (ast.Attribute, ast.Name)) and name in ELIMINATIONS
    ]
    assert names == []


def callers(path, name):
    """The functions (innermost, or "<module>") of a module that call
    `name` as a function or a method."""
    found = set()

    def visit(node, owner):
        owner = node.name if isinstance(node, ast.FunctionDef) else owner
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_class_numbering():
    # a second dict numbering, or a partition built outside `_partition`,
    # would decide the class order a second way
    assert callers(PACKAGE / "rings.py", "setdefault") == {"first_seen_ids"}
    assert callers(PACKAGE / "classes.py", "setdefault") == set()
    assert callers(PACKAGE / "classes.py", "ClassPartition") == {"_partition"}


def test_one_output_path():
    # a handler that formatted its own report would be a second place to
    # thread a new field through
    cli = PACKAGE / "cli.py"
    assert callers(cli, "_write_json") == callers(cli, "_write_csv") == {"main"}


def test_one_comparison_path():
    # a second comparison with the oracle would be a second check to keep in
    # step with the route that `zdg spectrum` prints
    oracle_callers = {p.name: callers(p, "brute_spectrum") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in oracle_callers.items() if found} == {"spectra.py": {"verify_ring"}}
    cli = PACKAGE / "cli.py"
    assert callers(cli, "brute_spectrum") | callers(cli, "multiset_equal") == set()


def test_one_gate():
    # a tolerance or a flavor list would let a caller pass the check by
    # loosening it or by comparing less; verify_ring compares every flavor
    # at DEFAULT_TOL, the lemma checks run at LEMMA_TOL relative to their
    # matrices and the pairing report at CLUSTER_GAP, and neither
    # `zdg verify` nor `zdg lift` takes a flag that moves them
    spectra = ast.parse((PACKAGE / "spectra.py").read_text())
    assert signature(spectra, "verify_ring") == ["ring", "relation", "vertex_cap"]
    assert signature(spectra, "duplicate_lift") == ["b", "j", "m", "lam", "v"]
    reference = ast.parse(REFERENCE.read_text())
    assert signature(reference, "fiedler_check") == ["a", "b", "u", "v", "rho"]
    assert signature(reference, "check_shift_lemma") == ["b_diag", "a", "d_diag"]
    assert signature(reference, "boolean_pairing_report") == ["values"]
    verbs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {a.dest for a in verbs.choices["verify"]._actions} & {"tol", "flavor"} == set()
    assert "tol" not in {a.dest for a in verbs.choices["lift"]._actions}


def test_cli_reads_no_clock():
    # every report is a function of its inputs alone, so stdout is
    # deterministic: a wall-clock field would differ from run to run
    nodes = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text())))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    assert {name.split(".")[0] for name in modules} & {"time", "datetime"} == set()
    assert "perf_counter" not in {getattr(node, "attr", None) or getattr(node, "id", None) for node in nodes}


def test_one_way_in():
    # an environment variable would be a second cap, a read `__cause__` a
    # refusal worded in a second place (each route words its own), and a
    # ring parsed under --sweep a second spelling of --ring
    cli = PACKAGE / "cli.py"
    reads = {
        getattr(node, "attr", None) or getattr(node, "id", None)
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert reads & {"environ", "getenv", "__cause__"} == set()
    assert "_sweep_rings" not in callers(cli, "parse_ring_spec") | callers(cli, "MatRing")


def defined_names(tree, everywhere):
    """The functions and classes a module defines, at any depth when
    `everywhere`, else at its top level, and its top-level assignments."""
    nodes = ast.walk(tree) if everywhere else tree.body
    names = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    targets = [t for n in tree.body if isinstance(n, ast.Assign) for t in n.targets]
    return names | {t.id for t in targets if isinstance(t, ast.Name)}


def test_references_number_their_own_classes():
    # a reference that numbered its classes through the package's routine
    # would break with the code it checks and still agree with it
    assert callers(REFERENCE, "first_seen_ids") == set()
    assert callers(REFERENCE, "_partition") == set()
    # every partition of the references, the annihilator one among them, goes through their own dict
    partitions = {"classes_associate", "_neighborhood_classes_masked", "classes_annihilator"}
    assert callers(REFERENCE, "_first_appearance") == partitions
    assert callers(REFERENCE, "ClassPartition") == partitions
    # a reference defined in the package too would be a second copy that can drift
    ours = defined_names(ast.parse(REFERENCE.read_text()), everywhere=False)
    assert ours
    for path in sorted(PACKAGE.glob("*.py")):
        assert defined_names(ast.parse(path.read_text()), everywhere=True) & ours == set(), path.name


def test_one_divisor_lattice():
    # a second scan over the divisors of n would state the Z_n classes a
    # second way; the closed route and the zn-profile report read one lattice
    assert callers(PACKAGE / "rings.py", "_divisor_classes") == {"_class_table"}
    assert callers(PACKAGE / "spectra.py", "_divisor_classes") == {"zn_profile"}
    numth = defined_names(ast.parse((PACKAGE / "numth.py").read_text()), everywhere=True)
    assert numth & {"divisors", "nontrivial_divisors", "euler_phi"} == set()
    for path in sorted(PACKAGE.glob("*.py")):
        imports = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.ImportFrom)]
        from_counts = {a.name for n in imports if (n.module or "").split(".")[-1] == "counts" for a in n.names}
        assert "zn_profile" not in from_counts, path.name


# (module, entry point, the general formula it returns once its own checks pass)
CLOSED_FORMS = [
    (PACKAGE / "graph.py", "degree_matring", "semisimple_vertex_degree"),
    (PACKAGE / "counts.py", "compressed_degree_matrix", "semisimple_class_degree"),
    (REFERENCE, "boolean_skeleton", "semisimple_class_size"),
    (REFERENCE, "boolean_skeleton", "semisimple_class_degree"),
    (REFERENCE, "boolean_skeleton", "semisimple_vertex_degree"),
    (PACKAGE / "rings.py", "class_count", "class_count_matrix"),  # MatRing's; no other ring's reads it
]


def test_one_closed_form_per_count():
    # a one-factor or field-factor case computed in place would state a
    # degree, size or class count a second way
    for path, entry, formula in CLOSED_FORMS:
        assert entry in callers(path, formula), (entry, formula)
    # the annihilator of x has gcd(x, n) elements: no sum over divisor classes
    numth = ast.parse((PACKAGE / "numth.py").read_text()).body
    for routine in [n.name for n in numth if isinstance(n, ast.FunctionDef)]:
        assert "degree_zn" not in callers(PACKAGE / "graph.py", routine), routine
    graph = ast.parse((PACKAGE / "graph.py").read_text())
    imports = [n for n in ast.walk(graph) if isinstance(n, ast.ImportFrom)]
    assert "numth" not in {alias.name for n in imports for alias in n.names} | {n.module for n in imports}


def test_one_list_of_flavors():
    # a flavor name spelled in the CLI or the schema would be a second list
    # to keep in step with the table the assembly reads
    verbs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flavor = next(a for a in verbs.choices["spectrum"]._actions if a.dest == "flavor")
    assert list(flavor.choices) == [*FLAVORS, "both"]
    schema = (PACKAGE / "schemas" / "report.schema.json").read_text()
    assert json.loads(schema)["$defs"]["flavor"] == {"enum": list(FLAVORS)}
    for name in FLAVORS:
        assert schema.count(f'"{name}"') == 1, name  # the reports' flavors all refer to that def
    literals = [
        node.value
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert [s for s in literals if "adjacency" in s or "laplacian" in s] == []


RELATIONS = ("associate", "neighborhood")


def test_one_list_of_relations():
    # every ring the parser builds is quasi-Frobenius, where equal
    # annihilators make associates: an annihilator relation would be a
    # second name for the associate partition
    verbs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for verb in ("classes", "verify"):
        relation = next(a for a in verbs.choices[verb]._actions if a.dest == "relation")
        assert tuple(relation.choices) == RELATIONS, verb
    defs = json.loads((PACKAGE / "schemas" / "report.schema.json").read_text())["$defs"]
    for report in ("classesReport", "verifyReport"):
        assert tuple(defs[report]["properties"]["relation"]["enum"]) == RELATIONS, report
    kind = defs["classesReport"]["properties"]["classes"]["items"]["properties"]["kind"]
    assert kind == {"enum": ["complete", "null"]}
    tree = ast.parse((PACKAGE / "classes.py").read_text())
    classes_for = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "classes_for")
    accepted = [
        node.comparators[0].value
        for node in ast.walk(classes_for)
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "relation"
    ]
    assert tuple(accepted) == RELATIONS
    assert "classes_annihilator" not in defined_names(tree, everywhere=True)


# the element cap and its names; the vertex cap bounds |R| too
ELEMENT_CAP_NAMES = {"element_cap", "max_elements", "EnumerationCapError", "DEFAULT_ELEMENT_CAP", "check_element_cap"}


def signature(tree, name, owner=None):
    """The parameter names of the function `name`, a method of the class
    `owner` when given, as the module `tree` defines it; keyword-only
    parameters follow the positional ones."""
    scope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == owner).body if owner else tree.body
    fn = next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name)
    return [a.arg for a in fn.args.args + fn.args.kwonlyargs]


def test_one_graph_cap():
    # a ring with a vertex has |R| <= (V + 1)^2, so a second cap on |R|
    # would be a value the vertex cap already fixes, behind a second flag
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        fields = ("attr", "id", "arg", "name")  # read, parameter, definition
        names = {getattr(node, f, None) for node in ast.walk(ast.parse(text)) for f in fields}
        assert names & ELEMENT_CAP_NAMES == set(), path.name
        assert "max-elements" not in text, path.name
    graph = ast.parse((PACKAGE / "graph.py").read_text())
    assert signature(graph, "build_zdg") == ["ring", "vertex_cap"]
    rings = ast.parse((PACKAGE / "rings.py").read_text())
    for name in ("elements", "zero_divisors"):
        assert signature(rings, name, owner="Ring") == ["self"], name


def package_imports(path):
    """(module, names) for each `from ... import` of the package in a file:
    the bare module name, or "" for the package itself."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        names = [alias.name for alias in node.names]
        if node.level == 1 and path.parent == PACKAGE:
            yield module, names
        elif node.level == 0 and module.split(".")[0] == "zdgspectra":
            yield module.removeprefix("zdgspectra").removeprefix("."), names


def test_one_import_path():
    # a re-export would be a second spelling of each name, and a second list
    # to keep in step with the module that defines it
    docstring, *body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [type(node) for node in body] == [ast.Assign]
    assert [target.id for target in body[0].targets] == ["__version__"]
    # and every import names a module of the package, or what a module defines
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    defines = {m: defined_names(ast.parse((PACKAGE / f"{m}.py").read_text()), everywhere=False) for m in modules}
    found = [
        (path.name, module, names)
        for root in ("src", "tests", "perfbench")
        for path in sorted((ROOT / root).rglob("*.py"))
        for module, names in package_imports(path)
    ]
    assert len(found) > 20
    for name, module, names in found:
        assert set(names) <= (defines.get(module, set()) if module else modules), (name, module, names)


# definitions that no code in src/ or perfbench/ names, each kept for its reason
UNNAMED_DEFINITIONS = {
    "rings.Ring.elements": "perfbench's tracer wraps it by the string 'Ring.elements'",
    "rings.GF.inv": "payload arithmetic, with add, neg and mul: the tests' elimination divides by it",
}


def definitions(tree):
    """The functions and classes a module defines at its top level, and
    the methods and classes of each class, as "Class.name"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{n.name}" for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))


def test_package_defines_only_what_it_runs():
    # a definition that only the tests read is a second public name to keep
    # in step with the pipeline; as a reference in tests/reference.py it
    # checks the package without being part of it
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    entry_points = re.findall(r'^zdg = "zdgspectra\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert entry_points == ["console_main"]
    unnamed = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in definitions(ast.parse(path.read_text()))
        for last in [name.rsplit(".", 1)[-1]]
        if last not in named | set(entry_points) and not (last.startswith("__") and last.endswith("__"))
    }
    assert unnamed == set(UNNAMED_DEFINITIONS)
