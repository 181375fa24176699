"""Structural checks on the library's source: each keeps a removed path
out or pins one algorithm, by the same patterns and ast conditions as
the check it replaced in the CI workflow, and names every offence it
finds in its failure message."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "perffield"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), name)


def _functions(body) -> dict:
    """The functions defined directly in a module's or a class's body."""
    return {n.name: n for n in body if isinstance(n, ast.FunctionDef)}


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def _attrs(fn) -> set:
    """Every attribute name that fn reads, as in x.attr."""
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}


def _attr_calls(fn) -> list:
    """Every call in fn of the form x.attr(...)."""
    return [n for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]


def test_one_linear_map():
    # every F_p-linear map of a field (a Frobenius power, an embedding) is
    # held as the chunk tables of its rows packed on the field's ring and
    # applied by _FqPoly.image, so FqElem.frobenius, FqElem.inv_frobenius
    # and embed each call it and none decodes digits, and neither the
    # digit-row image nor the inverse matrix as digit tuples comes back
    pattern = re.compile(rb"_linear_image|inv_frobenius_matrix")
    bad = [
        f"{path}: {pattern.pattern.decode()}"
        for path in sorted(SRC.parent.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and pattern.search(path.read_bytes())
    ]
    tree = _tree("fqtower.py")
    fns = {f"FqElem.{name}": f for name, f in _functions(_class(tree, "FqElem").body).items()}
    fns.update(_functions(tree.body))
    for name in ("FqElem.frobenius", "FqElem.inv_frobenius", "embed"):
        fn = fns.get(name)
        if fn is None:
            bad.append(f"{name} is missing")
            continue
        bad += [
            f"{name}:{n.lineno}: {n.id}"
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and n.id in ("_decode", "_encode", "_digits")
        ]
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
