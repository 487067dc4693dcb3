"""Cell-wise codegen lint: Listing-2 register rules on optimizer output.

Mirrors ``test_analyze_codegen.py`` for the new ``cellwise_*`` family: the
clean generator output must lint clean, every seeded mutation must be
flagged with the right kind, the committed ``tests/badkernels/codegen/``
corpus must keep tripping its documented rules, and every kernel the
optimizer can emit for the shipped scripts must pass ``repro check``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analyze.check import analyze_file, check_fusion_sources
from repro.analyze.codegen_lint import (
    check_cellwise_source,
    check_cellwise_specialization,
)
from repro.kernels.cellwise import CellwiseProgram, cellwise_params
from repro.kernels.codegen import generate_cellwise_source

CORPUS = Path(__file__).parent / "badkernels" / "codegen"

#: fixture file -> the kind its seeded bug must trip (extra consequential
#: kinds are allowed; e.g. an accumulating store also breaks coverage)
FIXTURE_KINDS = {
    "cellwise_nonconstant_bound.py": "codegen-nonconstant-index",
    "cellwise_overlapping_slices.py": "codegen-coverage",
    "cellwise_augassign_out.py": "codegen-accumulation",
    "cellwise_cross_slice_read.py": "codegen-accumulation",
    "cellwise_double_store.py": "codegen-coverage",
}

PROGRAM = CellwiseProgram(
    expr=("add", ("ewmul", ("in", 0), ("in", 1)), ("smul", 0.5, ("in", 2))),
    n_inputs=3)


def clean_src(n=8, vs=4, tl=2):
    return generate_cellwise_source(n, vs, tl, PROGRAM)


def mutate(src, pattern, replacement, count=1):
    out, n = re.subn(pattern, replacement, src, count=count)
    assert n == count, f"pattern {pattern!r} not found"
    return out


class TestCleanOutput:
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 100])
    def test_generator_output_is_clean(self, n):
        vs, tl = cellwise_params(n)
        assert check_cellwise_specialization(n, vs, tl, PROGRAM) == []

    def test_single_input_program(self):
        p = CellwiseProgram(expr=("smul", -1.0, ("in", 0)), n_inputs=1)
        assert check_cellwise_specialization(8, 4, 2, p) == []

    def test_findings_carry_filename(self):
        src = mutate(clean_src(), r"out\[0:4\] =", "out[0:4] +=")
        findings = check_cellwise_source(src, filename="gen.py")
        assert findings and all(f.file == "gen.py" for f in findings)
        assert all(f.kernel == "cellwise_8_4_2" for f in findings)


class TestMutations:
    def test_nonconstant_bound(self):
        src = mutate(clean_src(), r"l_a0s1 = a0\[0:4\]",
                     "vs = 4\n    l_a0s1 = a0[0:vs]")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-nonconstant-index" in kinds

    def test_overlapping_load_slices(self):
        src = mutate(clean_src(), r"l_a1s2 = a1\[4:8\]", "l_a1s2 = a1[2:6]")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-coverage" in kinds

    def test_missing_load(self):
        src = mutate(clean_src(), r"    l_a2s2 = a2\[4:8\]\n", "")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-coverage" in kinds

    def test_augmented_store(self):
        src = mutate(clean_src(), r"out\[4:8\] =", "out[4:8] +=")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-accumulation" in kinds

    def test_double_store(self):
        src = mutate(clean_src(), r"out\[4:8\]", "out[0:4]")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-coverage" in kinds

    def test_cross_slice_register_read(self):
        src = mutate(clean_src(), r"\(l_a0s2 \* l_a1s2\)",
                     "(l_a0s2 * l_a1s1)")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-accumulation" in kinds

    def test_register_reassignment(self):
        src = mutate(clean_src(), r"l_a2s2 = a2\[4:8\]", "l_a2s1 = a2[4:8]")
        kinds = {f.kind for f in check_cellwise_source(src)}
        assert "codegen-accumulation" in kinds

    def test_shape_mismatch_rejected(self):
        src = clean_src().replace("cellwise_8_4_2", "cellwise_8_4_3")
        assert check_cellwise_source(src), "VS*TL != n must be flagged"


class TestFixtureCorpus:
    def test_corpus_is_complete(self):
        found = {p.name for p in CORPUS.glob("*.py")}
        assert found == set(FIXTURE_KINDS)

    @pytest.mark.parametrize("name", sorted(FIXTURE_KINDS))
    def test_fixture_trips_documented_kind(self, name):
        findings = analyze_file(CORPUS / name)
        kinds = {f.kind for f in findings}
        assert FIXTURE_KINDS[name] in kinds, (name, kinds)

    @pytest.mark.parametrize("name", sorted(FIXTURE_KINDS))
    def test_fixture_findings_are_located(self, name):
        for f in analyze_file(CORPUS / name):
            assert f.line > 0
            assert f.kernel.startswith("cellwise_")


class TestOptimizerEmittedSources:
    def test_all_shipped_fusion_sources_lint_clean(self):
        """`repro check` over every kernel the optimizer would emit for the
        shipped scripts finds nothing."""
        assert check_fusion_sources() == []
