#!/usr/bin/env python3
"""Unit tests for tools/lint_invariants.py (run from ctest).

Each rule gets a passing and a failing fixture, plus waiver round-trips:
a reasoned waiver suppresses, a reasonless waiver errors, and a stale
waiver errors.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_invariants as lint  # noqa: E402

CRITICAL = "src/core/similarity_matrix.cc"  # in DETERMINISM_CRITICAL
SERVE = "src/serve/tenant_registry.cc"
OTHER = "src/graph/bipartite_graph.cc"


def run(path, text, extra_texts=None):
    """Lints `text` as `path`; returns final findings (waivers applied)."""
    texts = {path: text}
    texts.update(extra_texts or {})
    unordered = set()
    atomic_sp = set()
    for rel, body in texts.items():
        stripped = lint.strip_comments_and_strings(body)
        unordered |= lint.collect_unordered_names(stripped)
        if rel.startswith(lint.SERVE_PREFIX):
            atomic_sp |= lint.collect_atomic_shared_ptr_names(stripped)
    findings = []
    waivers = {}
    for rel, body in texts.items():
        findings.extend(lint.lint_file(rel, body, unordered, atomic_sp))
        waivers[rel] = lint.find_waivers(body)
    kept, errors = lint.apply_waivers(findings, waivers)
    return kept + errors


def rules_of(findings):
    return sorted(f.rule for f in findings)


class StripTest(unittest.TestCase):
    def test_strips_comments_and_strings_preserving_lines(self):
        text = 'int x; // new delete assert(\n"new Foo()" /* delete */\n'
        stripped = lint.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("new", stripped)
        self.assertNotIn("delete", stripped)
        self.assertNotIn("assert", stripped)

    def test_multiline_block_comment_keeps_line_numbers(self):
        text = "/* line1\nline2 new\n*/\nnew Foo();\n"
        findings = run(OTHER, text)
        self.assertEqual(rules_of(findings), ["naked-new"])
        self.assertEqual(findings[0].line, 4)


class UnorderedIterationTest(unittest.TestCase):
    def test_flags_range_for_in_critical_file(self):
        text = ("std::unordered_map<uint64_t, double> scores_;\n"
                "void f() { for (const auto& [k, v] : scores_) {} }\n")
        self.assertEqual(rules_of(run(CRITICAL, text)),
                         ["unordered-iteration"])

    def test_ignores_same_code_outside_critical_files(self):
        text = ("std::unordered_map<uint64_t, double> scores_;\n"
                "void f() { for (const auto& [k, v] : scores_) {} }\n")
        self.assertEqual(run(OTHER, text), [])

    def test_member_declared_in_header_flagged_in_cc(self):
        header = "std::unordered_map<uint64_t, double> scores_;\n"
        text = "void f() { for (const auto& [k, v] : scores_) {} }\n"
        findings = run(CRITICAL, text,
                       {"src/core/similarity_matrix.h": header})
        self.assertEqual(rules_of(findings), ["unordered-iteration"])

    def test_vector_iteration_not_flagged(self):
        text = ("std::vector<double> values_;\n"
                "void f() { for (double v : values_) {} }\n")
        self.assertEqual(run(CRITICAL, text), [])

    def test_call_argument_is_not_the_container(self):
        text = ("std::unordered_set<std::string> bids;\n"
                "void f() { for (auto& c : Select(bids)) {} }\n")
        self.assertEqual(run(CRITICAL, text), [])


class RelaxedPublishTest(unittest.TestCase):
    DECL = "std::atomic<std::shared_ptr<const Table>> table_;\n"

    def test_flags_relaxed_load_of_shared_ptr_atomic(self):
        text = (self.DECL +
                "auto t = table_.load(std::memory_order_relaxed);\n")
        self.assertEqual(rules_of(run(SERVE, text)), ["relaxed-publish"])

    def test_acquire_load_is_fine(self):
        text = (self.DECL +
                "auto t = table_.load(std::memory_order_acquire);\n")
        self.assertEqual(run(SERVE, text), [])

    def test_relaxed_on_plain_counter_is_fine(self):
        text = ("std::atomic<uint64_t> served_{0};\n"
                "void f() { served_.fetch_add(1, "
                "std::memory_order_relaxed); }\n")
        self.assertEqual(run(SERVE, text), [])

    def test_rule_scoped_to_serve(self):
        text = (self.DECL +
                "auto t = table_.load(std::memory_order_relaxed);\n")
        # Outside src/serve/ the atomic names are not even collected.
        self.assertEqual(run(OTHER, text), [])


class NakedNewTest(unittest.TestCase):
    def test_flags_new_and_delete(self):
        text = "void f() { auto* p = new Foo(); delete p; }\n"
        self.assertEqual(rules_of(run(OTHER, text)),
                         ["naked-new", "naked-new"])

    def test_deleted_function_not_flagged(self):
        text = "Foo(const Foo&) = delete;\nFoo& operator=(Foo&&) = delete;\n"
        self.assertEqual(run(OTHER, text), [])

    def test_make_unique_not_flagged(self):
        text = "auto p = std::make_unique<Foo>();\n"
        self.assertEqual(run(OTHER, text), [])

    def test_new_in_comment_or_string_not_flagged(self):
        text = '// a new approach\nconst char* s = "new Foo";\n'
        self.assertEqual(run(OTHER, text), [])


class RawAssertTest(unittest.TestCase):
    def test_flags_assert(self):
        text = "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n"
        self.assertEqual(rules_of(run(OTHER, text)), ["raw-assert"])

    def test_static_assert_and_srpp_check_not_flagged(self):
        text = ("static_assert(sizeof(int) == 4);\n"
                'void f(int x) { SRPP_CHECK(x > 0) << "bad"; }\n')
        self.assertEqual(run(OTHER, text), [])


class RawIntrinsicsTest(unittest.TestCase):
    SIMD = "src/util/simd/kernels_avx2.cc"

    def test_flags_intrinsic_call_outside_simd_tree(self):
        text = ("void f(double* y, const double* x) {\n"
                "  _mm256_storeu_pd(y, _mm256_loadu_pd(x));\n"
                "}\n")
        self.assertEqual(rules_of(run(OTHER, text)),
                         ["raw-intrinsics", "raw-intrinsics"])

    def test_flags_vector_type_outside_simd_tree(self):
        text = "__m512d acc;\n"
        self.assertEqual(rules_of(run(OTHER, text)), ["raw-intrinsics"])

    def test_flags_immintrin_include_outside_simd_tree(self):
        text = "#include <immintrin.h>\n"
        self.assertEqual(rules_of(run(OTHER, text)), ["raw-intrinsics"])

    def test_simd_tree_is_exempt(self):
        text = ("#include <immintrin.h>\n"
                "void f(double* y, const double* x) {\n"
                "  __m256d v = _mm256_loadu_pd(x);\n"
                "  _mm256_storeu_pd(y, v);\n"
                "}\n")
        self.assertEqual(run(self.SIMD, text), [])

    def test_intrinsic_in_comment_or_string_not_flagged(self):
        text = ('// call _mm256_loadu_pd via the kernel table\n'
                'const char* s = "#include <immintrin.h>";\n')
        self.assertEqual(run(OTHER, text), [])

    def test_kernel_table_call_not_flagged(self):
        text = ("double f(const double* d, const uint32_t* idx, size_t n)"
                " {\n"
                "  return simd::ActiveKernels().gather_sum(d, idx, n);\n"
                "}\n")
        self.assertEqual(run(OTHER, text), [])

    def test_waiver_suppresses(self):
        text = ("// srpp:allow(raw-intrinsics): prefetch hint only, no\n"
                "// arithmetic — dispatch indirection would defeat it.\n"
                "_mm_prefetch(p, _MM_HINT_T0);\n")
        self.assertEqual(run(OTHER, text), [])


class FusedMultiplyAddTest(unittest.TestCase):
    SIMD = "src/util/simd/simd_traits.h"

    def test_flags_fma_intrinsics_inside_simd_tree(self):
        text = ("static VecD Fused(VecD a, VecD b, VecD acc) {\n"
                "  return {_mm256_fmadd_pd(a.lo, b.lo, acc.lo),\n"
                "          _mm256_fnmsub_pd(a.hi, b.hi, acc.hi)};\n"
                "}\n"
                "__m512d f(__m512d a) { return _mm512_fmsub_pd(a, a, a); }\n"
                "__m512d g(__m512d a) {\n"
                "  return _mm512_mask3_fnmadd_pd(a, a, a, 0xff);\n"
                "}\n")
        findings = run(self.SIMD, text)
        self.assertEqual(rules_of(findings), ["fused-multiply-add"] * 4)
        self.assertEqual([f.line for f in findings], [2, 3, 5, 7])

    def test_flags_std_fma_and_builtin_outside_simd_tree(self):
        text = ("double f(double a, double b, double c) {\n"
                "  return std::fma(a, b, c) + fma (a, b, c) +\n"
                "         __builtin_fmaf(1.f, 2.f, 3.f);\n"
                "}\n")
        self.assertEqual(rules_of(run(OTHER, text)),
                         ["fused-multiply-add"] * 3)

    def test_separate_multiply_add_and_lookalikes_pass(self):
        text = ("acc = _mm256_add_pd(acc, _mm256_mul_pd(a, b));\n"
                "double m = std::fmax(a, b) + fmaf_count + my_fma(a);\n"
                "size_t fma_lanes = 0;\n")
        self.assertEqual(run(self.SIMD, text), [])

    def test_comment_or_string_not_flagged(self):
        text = ("// default kernels never call _mm256_fmadd_pd or std::fma\n"
                'const char* s = "fma(a, b, c)";\n')
        self.assertEqual(run(self.SIMD, text), [])

    def test_rule_scoped_to_src(self):
        text = "double x = std::fma(a, b, c);\n"
        self.assertEqual(run("bench/bench_perf_kernels.cc", text), [])


class MetricNamingTest(unittest.TestCase):
    def test_valid_counter_passes(self):
        text = ('auto* c = registry->GetCounter("srpp_requests_total",\n'
                '                               "Requests.");\n')
        self.assertEqual(run(OTHER, text), [])

    def test_counter_without_total_suffix_flagged(self):
        text = 'auto* c = registry->GetCounter("srpp_requests", "R.");\n'
        findings = run(OTHER, text)
        self.assertEqual(rules_of(findings), ["metric-naming"])
        self.assertIn("unit suffix", findings[0].message)

    def test_missing_prefix_flagged(self):
        text = 'auto* c = registry->GetCounter("requests_total", "R.");\n'
        findings = run(OTHER, text)
        self.assertEqual(rules_of(findings), ["metric-naming"])
        self.assertIn("srpp_", findings[0].message)

    def test_uppercase_flagged(self):
        text = ('auto* h = registry->GetHistogram("srpp_Latency_seconds",\n'
                '                                 "L.", bounds);\n')
        findings = run(OTHER, text)
        self.assertEqual(rules_of(findings), ["metric-naming"])
        self.assertIn("[a-z0-9_]", findings[0].message)

    def test_histogram_rejects_info_suffix(self):
        text = ('auto* h = registry->GetHistogram("srpp_build_info", "B.",\n'
                '                                 bounds);\n')
        self.assertEqual(rules_of(run(OTHER, text)), ["metric-naming"])

    def test_set_info_requires_info_suffix(self):
        good = 'registry->SetInfo("srpp_simd_info", "S.", {{"level", l}});\n'
        bad = 'registry->SetInfo("srpp_simd_total", "S.", {{"level", l}});\n'
        self.assertEqual(run(OTHER, good), [])
        self.assertEqual(rules_of(run(OTHER, bad)), ["metric-naming"])

    def test_standalone_literal_checked(self):
        # Collector-emitted family names never pass through Get*, but the
        # bare literal is still policed.
        text = 'family.name = "srpp_tenant_queries";\n'
        self.assertEqual(rules_of(run(OTHER, text)), ["metric-naming"])

    def test_standalone_valid_literal_passes(self):
        text = 'family.name = "srpp_tenant_queries_total";\n'
        self.assertEqual(run(OTHER, text), [])

    def test_sample_name_prefix_not_a_metric_literal(self):
        # Parser prefixes carry extra characters: not a bare metric name.
        text = ('constexpr std::string_view kSum =\n'
                '    "srpp_stage_duration_seconds_sum{";\n')
        self.assertEqual(run(OTHER, text), [])

    def test_name_in_comment_not_flagged(self):
        text = "// increments srpp_requests (legacy spelling)\nint x = 0;\n"
        self.assertEqual(run(OTHER, text), [])

    def test_waiver_suppresses(self):
        text = ('// srpp:allow(metric-naming): grandfathered dashboard name\n'
                'auto* c = registry->GetCounter("srpp_legacy_count", "L.");\n')
        self.assertEqual(run(OTHER, text), [])


class WaiverTest(unittest.TestCase):
    def test_same_line_waiver_suppresses(self):
        text = ("auto* p = new Foo();  "
                "// srpp:allow(naked-new): adopted by legacy API\n")
        self.assertEqual(run(OTHER, text), [])

    def test_preceding_comment_block_waiver_suppresses(self):
        text = ("// srpp:allow(naked-new): the constructor is private,\n"
                "// so make_unique cannot reach it.\n"
                "auto p = std::unique_ptr<Foo>(new Foo());\n")
        self.assertEqual(run(OTHER, text), [])

    def test_waiver_without_reason_is_an_error(self):
        # A reasonless waiver does not suppress: the original finding
        # stays AND the malformed waiver is reported.
        text = "auto* p = new Foo();  // srpp:allow(naked-new)\n"
        findings = run(OTHER, text)
        self.assertEqual(len(findings), 2)
        messages = " | ".join(f.message for f in findings)
        self.assertIn("without a reason", messages)
        self.assertIn("naked new", messages)

    def test_unused_waiver_is_an_error(self):
        text = "// srpp:allow(naked-new): stale\nint x = 0;\n"
        findings = run(OTHER, text)
        self.assertEqual(len(findings), 1)
        self.assertIn("unused waiver", findings[0].message)

    def test_unknown_rule_is_an_error(self):
        text = "// srpp:allow(no-such-rule): whatever\nint x = 0;\n"
        findings = run(OTHER, text)
        self.assertEqual(len(findings), 1)
        self.assertIn("unknown rule", findings[0].message)

    def test_waiver_for_one_rule_does_not_cover_another(self):
        text = ("void f(int x) { assert(x); }  "
                "// srpp:allow(naked-new): wrong rule\n")
        findings = run(OTHER, text)
        rules = rules_of(findings)
        self.assertIn("raw-assert", rules)
        self.assertIn("naked-new", rules)  # the unused-waiver error


class TreeTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        findings = lint.lint_tree(repo_root)
        self.assertEqual(findings, [],
                         "\n".join(repr(f) for f in findings))


if __name__ == "__main__":
    unittest.main()
