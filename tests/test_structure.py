"""Every structural guard on the library's source. Each test keeps a
removed path out or pins one algorithm, and names every offence it finds
in its failure message. The CI workflow holds no check of its own besides
the benchmark's, so the Tier-1 command is the whole gate before the
benchmark steps. This module imports only the standard library."""

import ast
import functools
import pathlib
import re

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parent.parent
SRC = ROOT / "src" / "perffield"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# (files, pattern, reason): no line of the files, names relative to the
# repository root, may match the pattern. A directory is searched through,
# past __pycache__ and this module, whose text names every pattern; a name
# after "-" is left out of the search.
GREPS = [
    ("src tests pyproject.toml", r"PERFFIELD_BACKEND|import numba|from numba|njit", "No second backend"),
    (
        "src/perffield/multipoly.py src/perffield/modgcd.py",
        r"_prem|_primitive|pseudo-remainder",
        "No pseudo-remainder gcd",
    ),
    ("src/perffield/multipoly.py", r"univar_gcd|_to_univar|_dense_coeffs", "One gcd path"),
    ("src/perffield/modgcd.py", r"^class _(Zp|Fq|FqPoly)\b|^\s+(from \.|import )", "F_{p^k} lives in fqtower"),
    ("src/perffield/fqtower.py", r"modgcd", "F_{p^k} lives in fqtower"),
    ("src/perffield/cli.py", r"\.body\b|\.terms\b", "CLI stays off the representation"),
    ("src/perffield -src/perffield/multipoly.py", r"point\[0\]\.field", "One evaluator"),
    ("src/perffield -src/perffield/multipoly.py", r"resolve_point_field", "One evaluator"),
    ("src/perffield", r"pow\([^)]*p - 2", "One inverse per field"),
    ("src/perffield/zpoly.py", r"def divmod", "One inverse per field"),
    ("src/perffield/zpoly.py", r"def add", "Packed products past the tables"),
    ("src/perffield/zpoly.py", r"^def (sub|mul|rem|powmod)\b", "One Z_p[t]/(f) arithmetic"),
    ("src/perffield/fqtower.py", r"^import operator", "One Z_p[t]/(f) arithmetic"),
    ("src tests", r"^class _Fq\b|point_tables", "One table object per field"),
    ("src/perffield/fqtower.py tests/helpers.py", r"_accel", "Root search off the batch kernels"),
    ("src", r"_linear_image|inv_frobenius_matrix", "One linear map"),
]


def _grep(reason: str) -> list:
    """Every line that a GREPS row for reason matches, and every file such
    a row names that is missing."""
    bad = []
    for files, pattern, why in GREPS:
        if why != reason:
            continue
        names = files.split()
        for name in names:
            if name.startswith("-"):
                continue
            path = ROOT / name
            if not path.exists():
                bad.append(f"{name} is missing")
                continue
            for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
                rel = f.relative_to(ROOT)
                if not f.is_file() or "__pycache__" in rel.parts or f == HERE or f"-{rel}" in names:
                    continue
                bad += [
                    f"{rel}:{i}: {line.decode(errors='replace')}"
                    for i, line in enumerate(f.read_bytes().split(b"\n"), 1)
                    if re.search(pattern.encode(), line)
                ]
    return bad


@functools.lru_cache(maxsize=None)
def _tree(name: str) -> ast.Module:
    """The module's ast, parsed once for every test that reads it."""
    return ast.parse((SRC / name).read_text(), name)


def _functions(body) -> dict:
    """The functions defined directly in a module's or a class's body, and
    as "Class.name" the methods of each class defined there."""
    out = {n.name: n for n in body if isinstance(n, ast.FunctionDef)}
    for cls in (n for n in body if isinstance(n, ast.ClassDef)):
        out.update({f"{cls.name}.{f.name}": f for f in cls.body if isinstance(f, ast.FunctionDef)})
    return out


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def _names(node) -> list:
    """Every bare name under node, read or bound, as its ast.Name."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Name)]


def _attrs(fn) -> set:
    """Every attribute name that fn reads, as in x.attr."""
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}


def _attr_calls(fn) -> list:
    """Every call in fn of the form x.attr(...)."""
    return [n for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]


def _callees(fn) -> set:
    """The name of every function that fn calls by a bare name, as f(...)."""
    return {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_no_second_backend():
    # one backend: pure Python, with numpy loaded for the sweeps only
    bad = _grep("No second backend")
    assert not bad, "\n".join(bad)


def test_no_pseudo_remainder_gcd():
    # gcds run Brown's modular algorithm; the pseudo-remainder sequence
    # lives on only as the test oracle in tests/helpers.py
    bad = _grep("No pseudo-remainder gcd")
    assert not bad, "\n".join(bad)


def test_one_gcd_path():
    # past its exact rules every gcd is Brown's, univariate inputs
    # included, so multipoly holds no Euclid of its own
    bad = _grep("One gcd path")
    assert not bad, "\n".join(bad)


def test_fpk_lives_in_fqtower():
    # F_{p^k} and its base-p encoding live in fqtower: modgcd holds
    # Brown's algorithm and imports its point fields at the top, and the
    # imports run one way, so fqtower never names modgcd
    bad = _grep("F_{p^k} lives in fqtower")
    assert not bad, "\n".join(bad)


def test_cli_stays_off_the_representation():
    # size bounds live with the algebra types, so the CLI never reads an
    # element's body or a polynomial's terms
    bad = _grep("CLI stays off the representation")
    assert not bad, "\n".join(bad)


def test_no_private_names_imported_across_modules():
    # a module's _-prefixed names are its own: a sibling that needs one
    # means the name belongs in a public place (parenthesised imports too)
    bad = [
        f"{path.name}:{node.lineno}: {a.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for a in node.names
        if a.name.startswith("_")
    ]
    assert not bad, "\n".join(bad)


def test_no_unused_imports():
    # an import that nothing reads is left over from a removed path (the
    # package's __init__ re-exports, so it is exempt)
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        used = {n.id for n in _names(tree)}
        bad += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in (a.asname or a.name.split(".")[0] for a in node.names)
            if name not in used
        ]
    assert not bad, "\n".join(bad)


def test_one_evaluator():
    # multipoly's resolve_point_field alone reads the point field off a
    # point and checks it; multipoly's eval_at_point alone calls it, for
    # MultiPoly.eval and RatFunc.eval, and PerfElem passes `field` through
    bad = _grep("One evaluator")
    assert not bad, "\n".join(bad)


def test_evaluation_on_encodings():
    # evaluation at a point runs on encodings: multipoly's term loop
    # powers through the point field's arithmetic object, never by `**`
    # on elements, and RatFunc.eval takes both of its values from one
    # eval_at_point call, so the point is resolved once
    mp, rf = _functions(_tree("multipoly.py").body), _functions(_tree("ratfunc.py").body)
    wanted = (("eval_at_point", mp), ("MultiPoly.eval", mp), ("RatFunc.eval", rf))
    bad = [f"{name} is missing" for name, fns in wanted if name not in fns]
    for name in ("eval_at_point", "MultiPoly.eval"):
        if name in mp:
            bad += [
                f"multipoly {name}:{n.lineno}: **"
                for n in ast.walk(mp[name])
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            ]
    if "RatFunc.eval" in rf:
        fn = rf["RatFunc.eval"]
        bad += [f"RatFunc.eval:{n.lineno}: calls .eval(" for n in _attr_calls(fn) if n.func.attr == "eval"]
        if "eval_at_point" not in _callees(fn):
            bad.append("RatFunc.eval never calls eval_at_point")
    assert not bad, "\n".join(bad)


def test_one_inverse_per_field():
    # each field inverts one way: Z_p by pow(x, -1, p), F_{p^k} by its log
    # table (exp[q - 1 - log a]) up to fqtower.MAX_POINT_FIELD elements and
    # by _FqPoly.inv past that bound or on a reducible modulus: Itoh-Tsujii's
    # chain of Frobenius powers on a ring whose modulus Rabin's test
    # accepted, and otherwise the Euclid (zpoly.invmod), which builds no
    # quotient; Rabin's test reads its gcds from that Euclid, through the
    # same _FqPoly.inv
    bad = _grep("One inverse per field")
    assert not bad, "\n".join(bad)


def test_one_fq_arithmetic():
    # FqElem holds an encoding and leaves its arithmetic to the field's one
    # arithmetic object (tables, or packed products past them), so no
    # method of FqElem names zpoly
    bad = [
        f"FqElem.{f.name}:{n.lineno}"
        for f in _class(_tree("fqtower.py"), "FqElem").body
        if isinstance(f, _DEFS)
        for n in _names(f)
        if n.id == "zpoly"
    ]
    assert not bad, "\n".join(bad)


def test_packed_products_past_the_tables():
    # past the tables a product is one big-int product of packed digits
    # and a Barrett reduction, so only the inverse decodes, and only on a
    # ring that Rabin's test has not accepted (zpoly's Euclid, which
    # Rabin's test reaches through _FqPoly.inv too); zpoly keeps no sum of
    # its own
    bad = _grep("Packed products past the tables")
    bad += [
        f"_FqPoly.{f.name}:{n.lineno}: {n.id}"
        for f in _class(_tree("fqtower.py"), "_FqPoly").body
        if isinstance(f, _DEFS) and f.name != "inv"
        for n in _names(f)
        if n.id in ("zpoly", "_decode", "_encode")
    ]
    assert not bad, "\n".join(bad)


def test_one_zpt_mod_f_arithmetic():
    # each field is built on its packed ring (FqField.ring(), an _FqPoly):
    # Rabin's test, the primitive element, Q, its inverse, the embedding
    # rows and the powers behind the tables all multiply there, so zpoly
    # keeps only the Euclid behind _FqPoly.inv (and trim), and no second
    # residue arithmetic mod f comes back; fqtower names zpoly only in
    # _FqPoly.inv's own body, not in a function or class nested there
    tree = _tree("fqtower.py")
    inv = [
        f
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "_FqPoly"
        for f in c.body
        if isinstance(f, _DEFS) and f.name == "inv"
    ]
    nested = [d for f in inv for d in ast.walk(f) if d is not f and isinstance(d, (*_DEFS, ast.ClassDef))]
    own = {id(n) for f in inv for n in _names(f)} - {id(n) for d in nested for n in _names(d)}
    bad = _grep("One Z_p[t]/(f) arithmetic")
    bad += [f"fqtower.py:{n.lineno}: zpoly" for n in _names(tree) if n.id == "zpoly" and id(n) not in own]
    assert not bad, "\n".join(bad)


def test_perfectness_checked_on_every_element():
    # check_perfect maps every element through Q, counts the images and
    # checks x^(p^k) = x on every element by gathers; a sweep that read
    # its answer off the log tables would be bijective by construction
    fn = _functions(_tree("fqtower.py").body)["check_perfect"]
    names = {n.id for n in _names(fn)} | _attrs(fn)
    called = _callees(fn) | {n.func.attr for n in _attr_calls(fn)}
    bad = [f"check_perfect never calls {c}" for c in ("bincount", "take") if c not in called]
    bad += [
        f"check_perfect names {w}"
        for w in ("arith", "_FqTables", "point_tables", "primitive_element", "log")
        if w in names
    ]
    assert not bad, "\n".join(bad)


def test_one_table_object_per_field():
    # each F_{p^k} holds one arithmetic object, its arith(): FqElem runs
    # on it, and so do Brown's points within make_field's bounds, so no
    # second table class or cached point-field layout comes back
    bad = _grep("One table object per field")
    fn = _functions(_tree("fqtower.py").body).get("point_field")
    if fn is None:
        bad.append("point_field is missing")
    elif "arith" not in _callees(fn) | {n.func.attr for n in _attr_calls(fn)}:
        bad.append("point_field never calls arith")
    assert not bad, "\n".join(bad)


def test_root_search_off_the_batch_kernels():
    # the embedding root search runs in the subfield's own coordinates on
    # one multiplication tensor, and the test oracles decode with numpy
    # themselves, so neither names the batch kernels of _accel
    bad = _grep("Root search off the batch kernels")
    assert not bad, "\n".join(bad)


def test_one_linear_map():
    # every F_p-linear map of a field (a Frobenius power, an embedding) is
    # held as the chunk tables of its rows packed on the field's ring and
    # applied by _FqPoly.image, so FqElem.frobenius, FqElem.inv_frobenius
    # and embed each call it and none decodes digits, and neither the
    # digit-row image nor the inverse matrix as digit tuples comes back
    bad = _grep("One linear map")
    fns = _functions(_tree("fqtower.py").body)
    for name in ("FqElem.frobenius", "FqElem.inv_frobenius", "embed"):
        fn = fns.get(name)
        if fn is None:
            bad.append(f"{name} is missing")
            continue
        bad += [f"{name}:{n.lineno}: {n.id}" for n in _names(fn) if n.id in ("_decode", "_encode", "_digits")]
        if "image" not in {n.func.attr for n in _attr_calls(fn)}:
            bad.append(f"{name} never calls image")
    assert not bad, "\n".join(bad)


def test_inverses_by_frobenius_powers():
    # _FqPoly.image applies a map by chunk-table lookups, so neither it
    # nor the ring methods it calls (past the slot reduction and read-back
    # of _norm and _unpack) multiplies a digit by a row; and past the
    # tables _FqPoly.inv runs Itoh-Tsujii's chain, whose Frobenius powers
    # (_frob) are lookups in the ring's tables of x -> x^(p^k)
    fns = _functions(_class(_tree("fqtower.py"), "_FqPoly").body)
    bad = [f"_FqPoly.{name} is missing" for name in ("image", "inv") if name not in fns]
    seen, todo, lookups = set(), ["image"], False
    while todo:
        name = todo.pop()
        if name in seen or name in ("_norm", "_unpack") or name not in fns:
            continue
        seen.add(name)
        fn = fns[name]
        bad += [
            f"_FqPoly.{name}:{n.lineno}: multiplies"
            for n in ast.walk(fn)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Mult)
        ]
        lookups |= any(isinstance(n, ast.Subscript) for n in ast.walk(fn))
        todo += [a for a in _attrs(fn) if a in fns]
    if not lookups:
        bad.append("_FqPoly.image looks up no chunk table")
    if "inv" in fns and "_frob" not in _attrs(fns["inv"]):
        bad.append("_FqPoly.inv never reaches the Frobenius-power chain (_frob)")
    elif "_frob" in fns:
        bad += [f"_FqPoly._frob never calls {a}" for a in ("frobenius", "_apply") if a not in _attrs(fns["_frob"])]
    assert not bad, "\n".join(bad)


def test_sweeps_on_the_packed_ring():
    # the two Frobenius sweeps work on the packed ring: the root search's
    # Gauss-Jordan reduces packed rows with _FqPoly._norm, its tensor
    # takes packed products (never FqElem-style ring.mul, which packs and
    # unpacks each pair), and at p = 2 check_perfect's images are built
    # by XOR, with no coordinate table
    fns = _functions(_tree("fqtower.py").body)
    names = ("find_embedding_root", "_null_space", "_frobenius_images")
    bad = [f"{name} is missing" for name in names if name not in fns]
    if not bad:
        bad += [
            f"find_embedding_root:{n.lineno}: calls .mul("
            for n in _attr_calls(fns["find_embedding_root"])
            if n.func.attr == "mul"
        ]
        for name, attr in (("_null_space", "_norm"), ("_frobenius_images", "bitwise_xor")):
            if attr not in {n.func.attr for n in _attr_calls(fns[name])}:
                bad.append(f"{name} never calls {attr}")
    assert not bad, "\n".join(bad)
