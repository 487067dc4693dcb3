"""Builder for the static-analysis correctness-gate experiment.

Re-runs the `repro check` scopes (shipped SIMT kernels, the generated
dense and cell-wise families) and cross-validates the seeded-bug
corpus, so EXPERIMENTS.md records the gate's verdict next to the
performance experiments instead of keeping a hand-maintained table the
report generator would silently drop.

The corpus rows need the repository checkout (``tests/badkernels``);
when the package runs installed without it, those rows degrade to a
note rather than failing the whole report.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
from pathlib import Path

from ..analyze import analyze_file
from ..analyze.check import (DEFAULT_GRID, check_fusion_sources, check_grid,
                             check_shipped)
from ..analyze.sanitizer import alg1_launch, alg2_launch
from .harness import ExperimentResult, register

_LAUNCHERS = {"alg1": alg1_launch, "alg2": alg2_launch}

#: every codegen-fixture docstring names the kind its seeded bug must trip
#: (``Expected ``kind``.`` or ``... flag it as ``kind``.``); wording wraps
#: across lines in some fixtures, so match any whitespace run
_EXPECTED_RE = re.compile(r"(?:expected|as)\s+``([a-z-]+)``", re.IGNORECASE)


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _fixture_kernel(mod):
    return next(fn for name, fn in sorted(vars(mod).items())
                if inspect.isgeneratorfunction(fn)
                and name.startswith(("alg1_", "alg2_")))


def _simt_corpus_row(corpus: Path) -> tuple[str, int, str]:
    """Static + dynamic verdict over the SIMT mutants (race/barrier bugs)."""
    fixtures = sorted(p for p in corpus.glob("*.py")
                      if p.name != "__init__.py")
    findings = 0
    agree = 0
    for path in fixtures:
        mod = _load_module(path)
        static = {f.kind for f in analyze_file(str(path))}
        findings += len(analyze_file(str(path)))
        dynamic = _LAUNCHERS[mod.SIGNATURE](_fixture_kernel(mod))
        if static == dynamic == {mod.EXPECTED_KIND}:
            agree += 1
    return (f"badkernels SIMT corpus ({len(fixtures)} mutants)", findings,
            f"static == dynamic == expected on {agree}/{len(fixtures)}")


def _codegen_corpus_row(corpus: Path) -> tuple[str, int, str]:
    """Lint verdict over the text-level cell-wise codegen mutants."""
    fixtures = sorted(corpus.glob("*.py"))
    findings = 0
    hit = 0
    for path in fixtures:
        expected = _EXPECTED_RE.search(path.read_text())
        kinds = {f.kind for f in analyze_file(str(path))}
        findings += len(analyze_file(str(path)))
        if expected and expected.group(1) in kinds:
            hit += 1
    return (f"badkernels codegen corpus ({len(fixtures)} mutants)", findings,
            f"documented kind hit on {hit}/{len(fixtures)}")


@register("analyze")
def analyze_gate(scale: float | None = None) -> ExperimentResult:
    """Static checker + sanitizer cross-validation as a recorded gate."""
    del scale                              # the gate has no size knob
    res = ExperimentResult(
        "analyze",
        "Static checker vs dynamic sanitizer on the SIMT and generated "
        "kernels (correctness gate)",
        ("scope", "static_findings", "verdict"),
    )
    clean = [
        ("shipped kernels (Alg. 1, Alg. 2 x2, Alg. 3, CSR-vector SpMV)",
         check_shipped()),
        (f"generated mtmvm_* grid ({len(DEFAULT_GRID)} specializations)",
         check_grid()),
        ("generated cellwise_* kernels from shipped fusion plans",
         check_fusion_sources()),
    ]
    for scope, findings in clean:
        res.add(scope, len(findings),
                "clean" if not findings else "FINDINGS — gate broken")

    corpus = Path("tests") / "badkernels"
    if corpus.is_dir():
        res.add(*_simt_corpus_row(corpus))
        res.add(*_codegen_corpus_row(corpus / "codegen"))
    else:
        res.notes.append(
            "seeded-bug corpus rows skipped: tests/badkernels not present "
            "(installed package without the repository checkout)")
    res.notes.append(
        "cross-validation contract (tests/test_badkernels.py): for each "
        "seeded SIMT mutant, the static finding kinds equal the kinds the "
        "sanitized launch observes; codegen mutants are text-level lint "
        "fixtures (no dynamic twin). CI gates `repro check` at exit 1 on "
        "findings with the corpus as a negative control.")
    return res
