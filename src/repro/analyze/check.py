"""The ``repro check`` entry point: run every static checker and report.

Default scope (no paths given): all shipped SIMT kernels in
:mod:`repro.kernels.simt_kernels`, a ``(VS, TL)`` grid of generated dense
specializations (the Listing 2 lint), and the fused cell-wise sources the
plan optimizer emits for the shipped DML scripts.  With explicit paths, only
those kernel files are analyzed — that is how the seeded-bug fixture corpus
under ``tests/badkernels/`` is exercised.
"""

from __future__ import annotations

import ast
import json
import os

from .checkers import check_models
from .codegen_lint import (check_cellwise_source, check_codegen_source,
                           check_specialization)
from .extract import AnalysisError, extract_kernel, is_kernel
from .model import Finding

DEFAULT_GRID = ((2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (16, 2), (32, 2))


def parse_grid(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse ``"4x2,8x4"`` into ``((4, 2), (8, 4))`` (VS x TL pairs)."""
    pairs = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vs, tl = (int(v) for v in part.lower().split("x"))
        except ValueError:
            raise ValueError(
                f"grid entry {part!r} must be VSxTL (e.g. 8x4)") from None
        if vs < 1 or tl < 1:
            raise ValueError(f"grid entry {part!r} must be positive")
        pairs.append((vs, tl))
    if not pairs:
        raise ValueError("empty specialization grid")
    return tuple(pairs)


def analyze_file(path: str) -> list[Finding]:
    """Statically check every SIMT kernel defined in one Python file."""
    with open(path) as f:
        source = f.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(
            f"{path}:{exc.lineno}: {exc.msg}") from None
    findings: list[Finding] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if is_kernel(node):
            for f_ in check_models(extract_kernel(node)):
                findings.append(Finding(
                    kind=f_.kind, kernel=f_.kernel, line=f_.line,
                    message=f_.message, file=path))
        elif node.name.startswith(("mtmvm_", "cellwise_")):
            # generated-kernel families are linted as standalone sources;
            # re-anchor their segment-relative line numbers to the file
            src = ast.get_source_segment(source, node) or ""
            checker = (check_codegen_source if node.name.startswith("mtmvm_")
                       else check_cellwise_source)
            offset = node.lineno - 1
            findings.extend(
                Finding(kind=f_.kind, kernel=f_.kernel,
                        line=f_.line + offset, message=f_.message, file=path)
                for f_ in checker(src))
    return findings


def shipped_kernels_path() -> str:
    from ..kernels import simt_kernels
    return simt_kernels.__file__


def check_shipped() -> list[Finding]:
    """Race/barrier analysis of every shipped per-thread kernel."""
    return analyze_file(shipped_kernels_path())


def check_grid(grid: tuple[tuple[int, int], ...] = DEFAULT_GRID) \
        -> list[Finding]:
    """Lint generated dense kernels across a (VS, TL) specialization grid."""
    findings: list[Finding] = []
    for vs, tl in grid:
        findings.extend(check_specialization(vs * tl, vs, tl))
    return findings


def check_fusion_sources() -> list[Finding]:
    """Lint every fused source the plan optimizer emits for the shipped
    DML scripts on a small synthetic matrix (fresh-kernel regression)."""
    from ..kernels.cellwise import cellwise_params
    from ..kernels.codegen import generate_cellwise_source
    from ..sparse.generate import random_csr
    from ..systemml.fusion import SHIPPED_DML, make_env, optimize

    X = random_csr(64, 16, 0.2, rng=0)
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for spec in SHIPPED_DML.values():
        root = spec.parse()
        plan = optimize(root, make_env(spec, X, rng=1),
                        expression=spec.dml)
        for cand in plan.chosen_candidates():
            if cand.program is None:       # eq1 lowers onto existing kernels
                continue
            # both shipped vector lengths, so each program is linted at the
            # specializations the runtime would actually compile
            for n in {X.shape[0], X.shape[1]}:
                vs, tl = cellwise_params(n)
                key = (cand.program.key(), vs * tl, vs, tl)
                if key in seen:
                    continue
                seen.add(key)
                findings.extend(check_cellwise_source(
                    generate_cellwise_source(vs * tl, vs, tl, cand.program),
                    filename=f"<fusion {spec.name}: {cand.label}>"))
    return findings


def run_check(paths: list[str] | None = None,
              grid: tuple[tuple[int, int], ...] = DEFAULT_GRID) \
        -> list[Finding]:
    """Full check run; ``paths`` overrides the default shipped-kernel scope."""
    if paths:
        findings: list[Finding] = []
        for path in paths:
            if not os.path.exists(path):
                raise SystemExit(f"kernel file not found: {path}")
            findings.extend(analyze_file(path))
        return findings
    return check_shipped() + check_grid(grid) + check_fusion_sources()


def findings_json(findings: list[Finding],
                  suppressed: list[Finding] | None = None) -> str:
    """Stable machine-readable findings: a flat list of dicts with sorted
    keys, ordered by (file, line, kind).  Suppressed findings (inline
    ``# analyze: allow`` sites) are included with ``"suppressed": true``
    so the gate's exceptions stay auditable."""
    rows = [dict(f.to_dict(), suppressed=False) for f in findings]
    rows += [dict(f.to_dict(), suppressed=True) for f in (suppressed or [])]
    rows.sort(key=lambda r: (r["file"], r["line"], r["kind"]))
    return json.dumps(rows, indent=2, sort_keys=True)


def findings_text(findings: list[Finding], checked: str,
                  suppressed_count: int = 0) -> str:
    lines = [f.describe() for f in findings]
    tail = f"{len(findings)} finding(s) over {checked}"
    if suppressed_count:
        tail += f" ({suppressed_count} suppressed)"
    lines.append(tail)
    return "\n".join(lines)
