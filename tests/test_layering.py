"""The package's import layering, read from the source with ``ast``.

Each module may import only the modules below it in ``LAYERS``; the package
facade (``__init__``, ``__main__``) sits above them all.  Imports happen at
module level only, so the layering is visible where a module starts.
Outside the package, a module imports only the standard library.  The packed
monomial format is ``multipoly``'s own: no other module touches it.  The F_p
oracle numbers each slot by its unknown's id, never by a variable name,
and builds its constraint system itself, importing nothing from the
classifier and caching nothing keyed by monomials.  The axiom suite's modes
are spelled in ``triangleop`` alone.  Every cache in the package is pinned
by name.  Every name a module or the facade lists in
``__all__`` exists on it.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posthopf"
LAYERS = [
    "exactmath", "multipoly", "solver", "hopfcore", "triangleop", "classifier", "ffenum", "cli",
]
FACADE = ["__init__", "__main__"]


def package_imports(tree: ast.Module) -> set[str]:
    """The posthopf modules a module imports, relative or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "posthopf":
                parts = node.module.split(".")
                out.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "posthopf" and len(parts) > 1:
                    out.add(parts[1])
    return out


def top_level_imports(tree: ast.Module) -> set[str]:
    """First components of the absolute module names a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def function_level_imports(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.extend(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(set(lines))


def test_import_layering():
    rank = {name: i for i, name in enumerate(LAYERS + FACADE)}
    sources = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    # a new module must be given its place in the order
    assert sorted(sources) == sorted(rank)
    for name, path in sources.items():
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        assert function_level_imports(tree) == [], f"{name}: import inside a function"
        for target in package_imports(tree):
            assert target in rank, f"{name} imports unknown module {target}"
            if name not in FACADE:
                assert rank[target] < rank[name], f"{name} imports {target}, which sits above it"


def test_standard_library_only():
    # the library runs on a bare interpreter: every import is its own or the
    # standard library's, and the package declares no dependency
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for name in top_level_imports(tree):
            assert name == "posthopf" or name in sys.stdlib_module_names, (
                f"{path.stem} imports {name}, which is not in the standard library"
            )
    lines = (ROOT / "pyproject.toml").read_text("utf-8").splitlines()
    assert "dependencies = []" in [line.strip() for line in lines]


# Poly's packed form: the monomial key and its memo, the terms store and its sort
PACKED_FORM = {"_mono_key", "_MONO_KEYS", "_terms", "_sorted_monos"}


def name_uses(tree: ast.Module, names: set[str]) -> list[tuple[int, str]]:
    """Lines and names where a module names one of ``names``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            uses.append((node.lineno, name))
    return uses


def test_packed_monomials_stay_in_multipoly():
    # other modules read terms through Poly.terms(), so the monomial format
    # can change inside multipoly alone
    paths = [
        path
        for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
        for path in sorted(folder.glob("*.py"))
        if path != PACKAGE / "multipoly.py"
    ]
    assert len(paths) > len(LAYERS)
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        assert name_uses(tree, PACKED_FORM) == [], path.name


def test_ffenum_reads_no_variable_names():
    # an oracle slot is its unknown's id in the classifier's registry, so
    # renaming the classifier's indeterminates cannot move a slot
    tree = ast.parse((PACKAGE / "ffenum.py").read_text("utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "name_of"
    ]
    assert calls == []


def cached(node) -> bool:
    return any("cache" in ast.unparse(d) for d in node.decorator_list)


def caches(tree: ast.Module) -> set[str]:
    """The caches a module defines: its module-level functions with a cache
    decorator, its classes' ``cached_property`` methods as ``Class.name``,
    and its module-level ``_Memo`` instances."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and cached(node):
            out.add(node.name)
        elif isinstance(node, ast.ClassDef):
            out.update(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and cached(item)
            )
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if ast.unparse(node.value.func) == "_Memo":
                out.update(target.id for target in node.targets)
    return out


# every cache of the package, with the hits it earns in one benchmark pass
# (perfbench/worker.py's job list in a fresh process); a cache no pass hits
# costs a concept and saves nothing
CACHES = {
    "classifier": {
        "_systems",  # 2 of 4 calls per classify pass: both modes share one generation
    },
    "ffenum": {
        "_system_terms",  # 9 of 10 calls per enumerate pass: both modes share one generation
    },
    "triangleop": {
        "_symbolic_family",  # 18 of 24 calls per classify pass, a ~0.4 ms parse each
    },
    "hopfcore": {
        # 262 of 264 reads per classify pass, 24,741 of 24,752 per enumerate pass
        "HopfStructure._comul_terms",
    },
    "multipoly": {
        "_MONO_KEYS",  # 108,885 of 119,941 reads per classify pass
        "_QUOTIENTS",  # 9,126 of 9,138 reads per classify pass
    },
}


def test_ffenum_imports_nothing_from_classifier():
    # the oracle reads the suite and the unknown table from triangleop, below
    # the classifier, so its system is its own: no Poly system, canonical
    # key or classifier cache comes with it
    tree = ast.parse((PACKAGE / "ffenum.py").read_text("utf-8"))
    assert "classifier" not in package_imports(tree)


def test_ffenum_does_not_share_the_classifier_cache():
    # the oracle keeps only its own integer form of the system; reading any of
    # the classifier's cached Poly systems would keep that alive next to it
    tree = ast.parse((PACKAGE / "ffenum.py").read_text("utf-8"))
    assert name_uses(tree, CACHES["classifier"]) == []


def test_every_cache_is_pinned():
    # a new cache must be given its place, and its hits, in CACHES.  The
    # oracle caches its converted systems and nothing else: a cache on
    # any other function, the interning above all, would be keyed by
    # monomials and grow with every distinct one for the life of the process
    found = {
        path.stem: caches(ast.parse(path.read_text("utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {stem: names for stem, names in found.items() if names} == CACHES


def constants(node) -> tuple | None:
    """The literal values of a tuple, list or set of constants, else None."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
        isinstance(e, ast.Constant) for e in node.elts
    ):
        return tuple(e.value for e in node.elts)
    return None


def test_the_suite_and_its_modes_are_defined_once():
    # triangleop alone spells the modes, and the generators read which mode
    # holds an axiom from its table (axiom_modes): neither compares an axiom
    # name with the check that weak mode adds
    spelled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        lines = [n.lineno for n in ast.walk(tree) if constants(n) == ("relaxed", "weak")]
        if lines:
            spelled[path.stem] = lines
    assert list(spelled) == ["triangleop"] and len(spelled["triangleop"]) == 1, spelled
    for stem in ("classifier", "ffenum"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text("utf-8"))
        compared = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators)
            if isinstance(operand, ast.Constant) and operand.value == "unitality"
        ]
        assert compared == [], stem


def test_every_exported_name_exists():
    # a name removed from a module must leave its __all__, and the facade's, too
    for stem in LAYERS + ["__init__"]:
        module = importlib.import_module("posthopf" if stem == "__init__" else f"posthopf.{stem}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{stem}: __all__ names {missing}"
