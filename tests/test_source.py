"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylbranch"


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in paths]


def test_no_assert_statements():
    # python -O strips assert statements; invariants must raise explicitly
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_numba_import():
    # the kernels run on one exact path; a numba import would bring back a
    # second one that cannot be tested without numba installed
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for m in modules if m.split(".")[0] == "numba"]
    assert not found, found


def test_public_api_stable():
    # the exported names are part of the stable interface
    import weylbranch

    assert weylbranch.__all__ == [
        "LieType",
        "RootSystem",
        "build_root_system",
        "minimal_weights",
        "pairing",
        "Characteristic",
        "CharacterTable",
        "freudenthal",
        "weyl_dim",
        "irr_dim",
        "Embedding",
        "GeomFamily",
        "geom_family",
        "build_embedding",
        "restrict_weight",
        "BranchReport",
        "ClassificationEntry",
        "branch_p0",
        "verify_entry",
        "scan_candidates",
        "__version__",
    ]
    for name in weylbranch.__all__:
        assert getattr(weylbranch, name) is not None, name
