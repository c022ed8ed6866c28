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


# the Clifford prediction is the one place the checker reads the component
# orbit or the central multiplicities, made for one weight, or for a scan
# as the component orbits of a block on the whole group's route and its one
# m per candidate; every verdict reads its result
CLIFFORD_INPUTS = {"component_orbit_set", "component_orbits", "central_multiplicity"}
PREDICTIONS = {"clifford_prediction", "_whole_group_above", "_multiplicities"}


def test_clifford_inputs_read_only_in_prediction():
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    callers = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in CLIFFORD_INPUTS:
                    callers.append((getattr(top, "name", None), name, node.lineno))
    assert {caller for caller, _, _ in callers} == PREDICTIONS, callers
    assert {name for _, name, _ in callers} == CLIFFORD_INPUTS


# the scan and the entry verification restrict in one int64 product and read
# each component orbit from its one prediction; the object-dtype restriction
# and a second orbit search stay off both paths
SCAN_PATH_EXCLUDED = {"restrict_weight", "component_orbit_set"}


def _checker_reach(root):
    """(checker functions reached from root, their calls as (caller, callee, line)).

    The prediction is the sanctioned reader of the component group and is
    not entered.
    """
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    reached, todo, calls = set(), [root], []
    while todo:
        name = todo.pop()
        if name in reached or name == "clifford_prediction":
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.append((name, callee, node.lineno))
                if callee in functions:
                    todo.append(callee)
    return reached, calls


def test_scan_path_calls_no_scalar_restriction_or_orbit_search():
    reached, calls = _checker_reach("scan_candidates")
    # each route's count of orbit elements, and the one helper that reads it
    assert {"_whole_group_above", "_key_match", "_h_above", "_torus_above", "_geometry"} <= reached
    assert {"_screen", "_multiplicities", "_branch_p0"} <= reached
    assert not [call for call in calls if call[1] in SCAN_PATH_EXCLUDED]


def test_verify_path_calls_no_scalar_restriction_or_orbit_search():
    # verify_entry reads the restriction and the prediction from its cached
    # per-entry record, and screens from the same record: it does not call
    # the public necessary_filters, which would validate lam and look the
    # record up a second time
    reached, calls = _checker_reach("verify_entry")
    assert {"_entry_record", "_entry_findings", "_key_match", "_geometry", "_screen", "_branch_p0"} <= reached
    assert "necessary_filters" not in reached
    assert not [call for call in calls if call[1] in SCAN_PATH_EXCLUDED]


def test_branch_path_calls_no_scalar_restriction_or_orbit_search():
    # branch_p0 reads its prediction from the same per-entry record as
    # verify_entry, and the checker no longer imports the scalar restriction
    reached, calls = _checker_reach("branch_p0")
    assert {"_entry_record", "_branch_p0"} <= reached
    assert not [call for call in calls if call[1] in SCAN_PATH_EXCLUDED]
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "restrict_weight" not in imported


def _function(module, name):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


# what a loop in dominant_table may read: lam's coordinates with per-node data
# of the root system, or the blocks of a level's frontier
SATURATION_LOOP_NAMES = {"lam", "rs", "zip", "int", "range", "len", "frontier", "block"}
SATURATION_LOOP_ATTRIBUTES = {"highest_coroot", "weight_heights"}


def test_table_build_does_no_per_weight_python_work():
    # a table reads its orbit sizes from the (type, zero-node set) cache, not
    # from one orbit_size call per weight, and its saturation steps whole
    # frontiers: no loop in dominant_table walks the positive roots
    cached = _function("charcalc.py", "_freudenthal_cached")
    calls = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(cached)
        if isinstance(node, ast.Call)
    }
    assert "_orbit_size_cached" in calls and "orbit_size" not in calls, calls
    loops = [node.iter for node in ast.walk(_function("kernels.py", "dominant_table"))
             if isinstance(node, (ast.For, ast.comprehension))]
    assert loops
    found = [
        ast.unparse(it)
        for it in loops
        if {n.id for n in ast.walk(it) if isinstance(n, ast.Name)} - SATURATION_LOOP_NAMES
        or {n.attr for n in ast.walk(it) if isinstance(n, ast.Attribute)} - SATURATION_LOOP_ATTRIBUTES
    ]
    assert not found, found


def test_checker_reads_no_generators():
    # the families state their component groups' shapes (the torus flag,
    # the wreath products, the flips that keep B_H): only embeddings reads
    # the generators, so the checker derives no group fact from them
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "generators"]
    assert not found, found


def test_embedding_is_the_checkers_handle_on_g_and_h():
    # the embedding names (G, H): the checker builds it only in entry_gate,
    # and no cache is keyed on an (ambient, family) pair to look it up again
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    callers = [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "build_embedding"
    ]
    assert callers == ["entry_gate"], callers
    keyed = []
    for name in ("checker.py", "embeddings.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name != "build_embedding"
                and any("cache" in ast.unparse(dec) for dec in node.decorator_list)
            ):
                params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
                keyed += [f"{name}:{node.lineno} {node.name}({p})" for p in sorted(params & {"ambient", "family"})]
    assert not keyed, keyed


def test_tables_state_no_family_arithmetic():
    # which instances exist is stated once, in embeddings.instance_params; the
    # tables iterate it and never branch on a family tag themselves
    from weylbranch.embeddings import FAMILY_TAGS

    tree = ast.parse((SRC / "tables.py").read_text(encoding="utf-8"))
    found = [
        f"tables.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in ast.walk(node)
        if isinstance(operand, ast.Constant) and operand.value in FAMILY_TAGS
    ]
    assert not found, found


def _selectors():
    """Every selector key and value that embeddings.instance_params yields."""
    from weylbranch.embeddings import FAMILY_TAGS, instance_params
    from weylbranch.rootsys import _MIN_RANK, FAMILIES

    found = set()
    for tag in FAMILY_TAGS:
        for letter in FAMILIES:
            for n in range(_MIN_RANK[letter], 13):
                for params in instance_params(tag, letter, n):
                    found |= {item for item in params.items() if isinstance(item[1], str)}
    keys, values = {k for k, _ in found}, {v for _, v in found}
    assert keys and values
    return keys | values


def _docstrings(tree):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_cli_and_tables_name_no_selector():
    # which selectors exist, and which one a spec may leave out, is stated
    # once, in embeddings.instance_params; the CLI and the tables read it
    selectors = _selectors()
    found = []
    for name in ("cli.py", "tables.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        found += [
            f"{name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in docs and node.value in selectors
        ]
    assert not found, found


def test_orbit_cap_read_only_in_kernels():
    # the enumeration cap and its environment override are stated once, in
    # kernels.orbit_cap; every other module reads them through it
    environ, literal = [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                environ.append(name)
            elif isinstance(node, ast.Constant) and type(node.value) is int and node.value == 1_000_000:
                literal.append(name)
    assert environ == ["kernels.py"], environ
    assert literal == ["kernels.py"], literal


def _imports(tree):
    """(module, name) for every name that tree imports, name None for a plain import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {(node.module or "", alias.name) for alias in node.names}
    return out


def test_one_epsilon_model_in_rootsys():
    # rootsys builds every root system from its epsilon model in integers;
    # embeddings reads the model from rootsys and keeps no copy of its own
    rootsys = ast.parse((SRC / "rootsys.py").read_text(encoding="utf-8"))
    assert not [m for m, _ in _imports(rootsys) if m.split(".")[0] == "fractions"]
    defined = {node.name for node in ast.walk(rootsys) if isinstance(node, ast.FunctionDef)}
    assert "epsilon_model" in defined
    assert not defined & {"_cartan_matrix", "_root_lengths", "_positive_roots", "_invert_fraction_matrix"}
    embeddings = ast.parse((SRC / "embeddings.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(embeddings) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_ambient_e_rows", "_factor_from_e"}
    assert ("rootsys", "epsilon_model") in _imports(embeddings)
    attributes = {node.attr for node in ast.walk(embeddings) if isinstance(node, ast.Attribute)}
    assert {"epsilon", "weights", "coroots"} <= attributes


# builtins that run or import text as code
EXECUTING_BUILTINS = {"eval", "exec", "compile", "__import__"}


def _executing_names(tree):
    return [f"{node.lineno} {node.id}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in EXECUTING_BUILTINS]


def test_no_module_executes_text():
    # table expressions are parsed to a tree and walked; no module hands any
    # text to the interpreter (re.compile and the like are attributes, not these names)
    found = [f"{name}:{hit}" for name, tree in _trees() for hit in _executing_names(tree)]
    assert not found, found
    synthetic = ast.parse("import re\nre.compile('x')\nrun = eval\nexec('1')\n")
    assert _executing_names(synthetic) == ["3 eval", "4 exec"]


def test_tables_reads_expressions_with_pythons_parser():
    # one reader: Python's parser and a whitelist walker, no hand tokenizer,
    # recursive-descent parser or paren splitter beside it
    tables = ast.parse((SRC / "tables.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tables) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_tokenize", "_Parser", "_split_top"}
    calls = {
        (node.func.value.id, node.func.attr)
        for node in ast.walk(tables)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
    }
    assert ("ast", "parse") in calls


# per-positive-root data is derived once, in the table RootSystem builds;
# every other module reads that table instead of deriving its own
ROOT_TABLE_CALLS = {"root_coords_to_weight", "pairing"}


def test_per_root_data_derived_only_in_rootsys():
    found = []
    for name, tree in _trees():
        if name == "rootsys.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "slen2":
                found.append(f"{name}:{node.lineno} .slen2")
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in ROOT_TABLE_CALLS:
                    found.append(f"{name}:{node.lineno} {callee}()")
    assert not found, found


# caches keyed on a root system alone: one entry per Lie type in use
PER_ROOT_SYSTEM_CACHES = {"build_root_system", "_chain_blocks", "_coset_stages"}


def _caches(tree):
    """(function, line, bounded) for each ``lru_cache`` or ``cache`` decorator
    in tree, matched by callee name; bounded means a maxsize that is stated
    and not None."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            callee = getattr(target, "id", getattr(target, "attr", None))
            if callee not in ("lru_cache", "cache"):
                continue
            sizes = ([kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]) if call else []
            bounded = callee == "lru_cache" and bool(sizes) and not (
                isinstance(sizes[0], ast.Constant) and sizes[0].value is None
            )
            out.append((node.name, node.lineno, bounded))
    return out


def test_lru_caches_are_bounded():
    # long scans must run in bounded memory, so every cache keyed on weights
    # or embeddings states a finite maxsize
    found, unbounded = set(), []
    for name, tree in _trees():
        for func, line, bounded in _caches(tree):
            found.add(func)
            if not bounded and func not in PER_ROOT_SYSTEM_CACHES:
                unbounded.append(f"{name}:{line} {func}")
    assert not unbounded, unbounded
    assert PER_ROOT_SYSTEM_CACHES <= found
    # the rule itself, on a synthetic source: a cached property is one value
    # per instance, not a cache; every form without a finite maxsize fails
    synthetic = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def prop(self): pass\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def keyword(x): pass\n"
        "@lru_cache(16)\n"
        "def positional(x): pass\n"
        "@functools.cache\n"
        "def cache_attr(x): pass\n"
        "@cache\n"
        "def cache_name(x): pass\n"
        "@lru_cache()\n"
        "def empty_call(x): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def none_size(x): pass\n"
        "@lru_cache\n"
        "def bare(x): pass\n"
    )
    assert {func: bounded for func, _, bounded in _caches(synthetic)} == {
        "keyword": True,
        "positional": True,
        "cache_attr": False,
        "cache_name": False,
        "empty_call": False,
        "none_size": False,
        "bare": False,
    }


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
