"""Lint generated dense-kernel source for the Listing 2 register rules.

CUDA keeps an array in registers only when every index into it is a
compile-time constant; the paper therefore emits one specialized kernel per
``(n, VS, TL)`` with all register loops unrolled (Listing 2).  Our generator
(:func:`repro.kernels.codegen.generate_source`) mirrors that in host Python,
and this linter re-validates its output *as text*, independent of the
generator's own logic:

* ``codegen-nonconstant-index`` — every subscript bound must be a literal
  integer constant (a variable bound would spill the register array);
* ``codegen-coverage`` — the ``l_y``/``l_X``/``out`` slices must be disjoint,
  ``VS``-wide, and cover ``[0, n)`` exactly, in register order;
* ``codegen-accumulation`` — a single register accumulation chain:
  ``s = l_X1 @ l_y1`` then ``s += l_Xi @ l_yi`` for ``i = 2..TL`` in order,
  with the only other rebind being the ``v``-elementwise step.
"""

from __future__ import annotations

import ast
import re

from .model import Finding

_NAME_RE = re.compile(r"^mtmvm_(\d+)_(\d+)_(\d+)$")


def _finding(kind: str, kernel: str, line: int, message: str) -> Finding:
    return Finding(kind=kind, kernel=kernel, line=line, message=message)


def _const_int(node: ast.AST | None) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)):
        return -node.operand.value
    return None


def _slice_bounds(node: ast.AST) -> tuple[int | None, int | None, bool]:
    """(lower, upper, constant?) for one slice; non-slices are None."""
    if not isinstance(node, ast.Slice):
        return None, None, False
    if node.step is not None and _const_int(node.step) != 1:
        return None, None, False
    lo = _const_int(node.lower) if node.lower is not None else 0
    hi = _const_int(node.upper)
    return lo, hi, (lo is not None and hi is not None)


def _check_constant_indices(fn: ast.FunctionDef) -> list[Finding]:
    findings = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Subscript):
            continue
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        for part in parts:
            if isinstance(part, ast.Slice):
                full_row = (part.lower is None and part.upper is None
                            and part.step is None)
                _, _, const = _slice_bounds(part)
                if not (full_row or const):
                    findings.append(_finding(
                        "codegen-nonconstant-index", fn.name, node.lineno,
                        f"slice bound in {ast.unparse(node)!r} is not a "
                        "compile-time constant; the register array would "
                        "spill (Listing 2)"))
            elif _const_int(part) is None:
                findings.append(_finding(
                    "codegen-nonconstant-index", fn.name, node.lineno,
                    f"index in {ast.unparse(node)!r} is not a compile-time "
                    "integer constant"))
    return findings


def _reg_slices(fn: ast.FunctionDef, prefix: str) \
        -> dict[int, tuple[int | None, int | None, int]]:
    """register id -> (lo, hi, line) for ``l_y{i} = y[lo:hi]``-style loads."""
    out: dict[int, tuple[int | None, int | None, int]] = {}
    for stmt in fn.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        name = stmt.targets[0].id
        m = re.fullmatch(rf"{prefix}(\d+)", name)
        if not m or not isinstance(stmt.value, ast.Subscript):
            continue
        sl = stmt.value.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
            sl = sl.elts[1]               # X[:, lo:hi] — the column slice
        lo, hi, _ = _slice_bounds(sl)
        out[int(m.group(1))] = (lo, hi, stmt.lineno)
    return out


def _out_slices(fn: ast.FunctionDef) \
        -> dict[int, tuple[int | None, int | None, int]]:
    """register id -> column slice for ``out[lo:hi] += alpha * l_w{i}``."""
    out: dict[int, tuple[int | None, int | None, int]] = {}
    for stmt in fn.body:
        if not (isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Subscript)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "out"):
            continue
        regs = [int(m.group(1)) for m in
                re.finditer(r"l_w(\d+)", ast.unparse(stmt.value))]
        if len(regs) != 1:
            continue
        lo, hi, _ = _slice_bounds(stmt.target.slice)
        out[regs[0]] = (lo, hi, stmt.lineno)
    return out


def _check_coverage(fn: ast.FunctionDef, n: int, vs: int, tl: int) \
        -> list[Finding]:
    findings = []
    families = {"l_y": _reg_slices(fn, "l_y"), "l_X": _reg_slices(fn, "l_X"),
                "out": _out_slices(fn)}
    for family, slices in families.items():
        if set(slices) != set(range(1, tl + 1)):
            findings.append(_finding(
                "codegen-coverage", fn.name, fn.lineno,
                f"{family} register ids are {sorted(slices)}, expected "
                f"1..{tl}"))
            continue
        family_clean = True
        covered: list[tuple[int, int]] = []
        for i in range(1, tl + 1):
            lo, hi, line = slices[i]
            want = ((i - 1) * vs, i * vs)
            if (lo, hi) != want:
                family_clean = False
                findings.append(_finding(
                    "codegen-coverage", fn.name, line,
                    f"{family}{i} covers [{lo}, {hi}), expected "
                    f"[{want[0]}, {want[1]}) — slices must be disjoint, "
                    f"VS-wide, and in register order"))
            if lo is not None and hi is not None:
                covered.append((lo, hi))
        cells = sorted(c for lo, hi in covered for c in range(lo, hi))
        if family_clean and cells != list(range(n)):
            findings.append(_finding(
                "codegen-coverage", fn.name, fn.lineno,
                f"{family} slices do not tile [0, {n}) exactly"))
    return findings


def _check_accumulation(fn: ast.FunctionDef, tl: int) -> list[Finding]:
    findings = []
    inits: list[tuple[int, str]] = []     # (line, rhs) for `s = ...`
    augs: list[tuple[int, str]] = []      # (line, rhs) for `s += ...`
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "s"):
            inits.append((node.lineno, ast.unparse(node.value)))
        elif (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "s" and isinstance(node.op, ast.Add)):
            augs.append((node.lineno, ast.unparse(node.value)))
    chain_inits = [(ln, rhs) for ln, rhs in inits if rhs != "s * v"]
    if len(chain_inits) != 1 or chain_inits[0][1] != "l_X1 @ l_y1":
        findings.append(_finding(
            "codegen-accumulation", fn.name,
            chain_inits[0][0] if chain_inits else fn.lineno,
            f"accumulator must be initialized exactly once as "
            f"'s = l_X1 @ l_y1'; found {[r for _, r in chain_inits]}"))
    expected = [f"l_X{i} @ l_y{i}" for i in range(2, tl + 1)]
    if [rhs for _, rhs in augs] != expected:
        findings.append(_finding(
            "codegen-accumulation", fn.name,
            augs[0][0] if augs else fn.lineno,
            f"accumulation chain is {[r for _, r in augs]}, expected "
            f"{expected} (one '+=' per register, in order)"))
    return findings


def check_codegen_source(source: str, filename: str = "") -> list[Finding]:
    """Lint one generated kernel source; returns all rule violations."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding("codegen-coverage", "<unparseable>",
                         exc.lineno or 0,
                         f"generated source does not parse: {exc.msg}")]
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(fns) != 1:
        return [_finding("codegen-coverage", "<module>", 1,
                         f"expected exactly one generated function, found "
                         f"{len(fns)}")]
    fn = fns[0]
    m = _NAME_RE.match(fn.name)
    if not m:
        return [_finding("codegen-coverage", fn.name, fn.lineno,
                         "generated function name must be "
                         "mtmvm_<n>_<VS>_<TL>")]
    n, vs, tl = (int(g) for g in m.groups())
    if n != vs * tl:
        return [_finding("codegen-coverage", fn.name, fn.lineno,
                         f"specialization key n={n} != VS*TL={vs}*{tl}")]
    findings = _check_constant_indices(fn)
    findings += _check_coverage(fn, n, vs, tl)
    findings += _check_accumulation(fn, tl)
    if filename:
        findings = [Finding(kind=f.kind, kernel=f.kernel, line=f.line,
                            message=f.message, file=filename)
                    for f in findings]
    return findings


def check_specialization(n: int, vs: int, tl: int) -> list[Finding]:
    """Generate the ``(n, VS, TL)`` kernel and lint its source."""
    from ..kernels.codegen import generate_source
    return check_codegen_source(generate_source(n, vs, tl),
                                filename=f"<generated mtmvm_{n}_{vs}_{tl}>")


# ------------------------------------------------- fused cell-wise kernels --
_CELL_NAME_RE = re.compile(r"^cellwise_(\d+)_(\d+)_(\d+)$")
_CELL_LOCAL_RE = re.compile(r"l_a(\d+)s(\d+)")


def _cell_load_slices(fn: ast.FunctionDef) \
        -> tuple[dict[tuple[int, int], tuple[int | None, int | None, int]],
                 list[Finding]]:
    """``(input k, slice i) -> (lo, hi, line)`` for ``l_a{k}s{i} = ...``."""
    out: dict[tuple[int, int], tuple[int | None, int | None, int]] = {}
    findings: list[Finding] = []
    for stmt in fn.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        m = re.fullmatch(r"l_a(\d+)s(\d+)", stmt.targets[0].id)
        if not m:
            continue
        key = (int(m.group(1)), int(m.group(2)))
        if key in out:
            findings.append(_finding(
                "codegen-accumulation", fn.name, stmt.lineno,
                f"register l_a{key[0]}s{key[1]} is assigned more than once "
                "(registers are single-assignment)"))
            continue
        if not isinstance(stmt.value, ast.Subscript):
            findings.append(_finding(
                "codegen-coverage", fn.name, stmt.lineno,
                f"register l_a{key[0]}s{key[1]} must load a slice of its "
                "input array"))
            continue
        lo, hi, _ = _slice_bounds(stmt.value.slice)
        out[key] = (lo, hi, stmt.lineno)
    return out, findings


def _cell_out_stores(fn: ast.FunctionDef) \
        -> tuple[list[tuple[int | None, int | None, int, str]],
                 list[Finding]]:
    """Ordered ``out[lo:hi] = rhs`` stores plus accumulation violations."""
    stores: list[tuple[int | None, int | None, int, str]] = []
    findings: list[Finding] = []
    for stmt in fn.body:
        if (isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Subscript)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "out"):
            findings.append(_finding(
                "codegen-accumulation", fn.name, stmt.lineno,
                "fused cell-wise kernels must store each out slice exactly "
                "once with '='; '+=' re-reads global memory (read-modify-"
                "write hazard)"))
            continue
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Subscript)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "out"):
            continue
        lo, hi, _ = _slice_bounds(stmt.targets[0].slice)
        stores.append((lo, hi, stmt.lineno, ast.unparse(stmt.value)))
    return stores, findings


def check_cellwise_source(source: str, filename: str = "") -> list[Finding]:
    """Lint one generated fused cell-wise kernel (optimizer-emitted).

    Mirrors :func:`check_codegen_source` for the ``cellwise_<n>_<VS>_<TL>``
    family: constant slice bounds (register residency), per-input and
    per-store tiling of ``[0, n)`` in slice order, single-assignment
    registers, exactly one plain store per out slice, and no cross-slice
    register reads.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding("codegen-coverage", "<unparseable>",
                         exc.lineno or 0,
                         f"generated source does not parse: {exc.msg}")]
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(fns) != 1:
        return [_finding("codegen-coverage", "<module>", 1,
                         f"expected exactly one generated function, found "
                         f"{len(fns)}")]
    fn = fns[0]
    m = _CELL_NAME_RE.match(fn.name)
    if not m:
        return [_finding("codegen-coverage", fn.name, fn.lineno,
                         "generated function name must be "
                         "cellwise_<n>_<VS>_<TL>")]
    n, vs, tl = (int(g) for g in m.groups())
    if n != vs * tl:
        return [_finding("codegen-coverage", fn.name, fn.lineno,
                         f"specialization key n={n} != VS*TL={vs}*{tl}")]
    n_inputs = len(fn.args.args) - 1       # last parameter is `out`

    findings = _check_constant_indices(fn)
    loads, load_findings = _cell_load_slices(fn)
    findings += load_findings
    for k in range(n_inputs):
        ids = sorted(i for (kk, i) in loads if kk == k)
        if ids != list(range(1, tl + 1)):
            findings.append(_finding(
                "codegen-coverage", fn.name, fn.lineno,
                f"l_a{k} slice ids are {ids}, expected 1..{tl}"))
            continue
        for i in range(1, tl + 1):
            lo, hi, line = loads[(k, i)]
            want = ((i - 1) * vs, i * vs)
            if (lo, hi) != want:
                findings.append(_finding(
                    "codegen-coverage", fn.name, line,
                    f"l_a{k}s{i} covers [{lo}, {hi}), expected "
                    f"[{want[0]}, {want[1]})"))

    stores, store_findings = _cell_out_stores(fn)
    findings += store_findings
    got = [(lo, hi) for lo, hi, _, _ in stores]
    want_stores = [((i - 1) * vs, i * vs) for i in range(1, tl + 1)]
    if got != want_stores:
        findings.append(_finding(
            "codegen-coverage", fn.name,
            stores[0][2] if stores else fn.lineno,
            f"out stores cover {got}, expected {want_stores} (disjoint, "
            f"VS-wide, in slice order, exactly once each)"))
    for idx, (_, _, line, rhs) in enumerate(stores, start=1):
        wrong = sorted({f"l_a{k}s{i}"
                       for k, i in ((int(a), int(b)) for a, b
                                    in _CELL_LOCAL_RE.findall(rhs))
                       if i != idx})
        if wrong:
            findings.append(_finding(
                "codegen-accumulation", fn.name, line,
                f"store for slice {idx} reads registers of other slices: "
                f"{wrong}"))
    if filename:
        findings = [Finding(kind=f.kind, kernel=f.kernel, line=f.line,
                            message=f.message, file=filename)
                    for f in findings]
    return findings


def check_cellwise_specialization(n: int, vs: int, tl: int,
                                  program) -> list[Finding]:
    """Generate one fused cell-wise kernel and lint its source."""
    from ..kernels.codegen import generate_cellwise_source
    return check_cellwise_source(
        generate_cellwise_source(n, vs, tl, program),
        filename=f"<generated cellwise_{n}_{vs}_{tl}>")
