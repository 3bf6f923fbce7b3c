#!/usr/bin/env python3
"""Repo-specific invariant linter (docs/STATIC_ANALYSIS.md).

Encodes the determinism and resource-ownership invariants that generic
tooling cannot know about this codebase:

  unordered-iteration  Range-for over a std::unordered_{map,set} in a
                       determinism-critical file (export / scoring /
                       serialization paths). Hash-order iteration there
                       can silently break the bit-identical-exports
                       guarantee that sparse_equivalence_test pins.
  relaxed-publish      std::memory_order_relaxed on an
                       std::atomic<std::shared_ptr<...>> in src/serve/.
                       Those atomics RCU-publish immutable generations;
                       relaxed ordering would let readers see a
                       half-constructed object.
  naked-new            `new` / `delete` expressions. Ownership lives in
                       unique_ptr/shared_ptr/containers; the rare
                       justified site carries a waiver.
  raw-assert           assert() outside SRPP_CHECK. assert compiles out
                       under NDEBUG, so release builds would skip the
                       invariant; SRPP_CHECK (util/logging.h) is
                       always-on.
  raw-intrinsics       x86 intrinsics (_mm*/__m128/__m256/__m512) or an
                       <immintrin.h>-family include outside
                       src/util/simd/. Vector code must live behind the
                       kernel-table interface (docs/SIMD_KERNELS.md) so
                       the scalar fallback, runtime dispatch, and the
                       cross-level determinism contract stay in one
                       place.
  fused-multiply-add   An FMA intrinsic (_mm*_fmadd_*, _fmsub_*,
                       _fnmadd_*, _fnmsub_*) or std::fma / fma( anywhere
                       under src/, src/util/simd/ included. Each SIMD
                       level has one kernel table and it never fuses,
                       so every level rounds exactly like the scalar
                       reference; one explicit fusion breaks the
                       byte-identical exports across levels.
  metric-naming        A metric-name string literal that breaks the
                       naming policy (docs/OBSERVABILITY.md): srpp_
                       prefix, [a-z0-9_] charset, and a unit suffix —
                       _total for counters; _total/_seconds/_bytes/
                       _ratio for gauges and histograms (gauges may
                       also end _info); _info for SetInfo. Checked at
                       MetricsRegistry registration calls (where the
                       kind is known) and on any standalone "srpp_..."
                       literal (collector-emitted family names). The
                       registry SRPP_CHECKs the same policy at runtime;
                       this catches it before anything runs.

Waivers: a finding is suppressed by a comment on the same line or the
line directly above it::

    // srpp:allow(naked-new): private ctor keeps make_unique out
    return std::unique_ptr<ServeDaemon>(new ServeDaemon(...));

The reason after the colon is mandatory, and a waiver that suppresses
nothing is itself an error — stale waivers rot.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = (
    "unordered-iteration",
    "relaxed-publish",
    "naked-new",
    "raw-assert",
    "raw-intrinsics",
    "fused-multiply-add",
    "metric-naming",
)

# Files on the export / scoring / serialization path, where iteration
# order becomes output order (or feeds something that must sort before
# it does). Keep in sync with docs/STATIC_ANALYSIS.md.
DETERMINISM_CRITICAL = (
    "src/core/pair_store.cc",
    "src/core/pair_store.h",
    "src/core/similarity_matrix.cc",
    "src/core/similarity_matrix.h",
    "src/core/snapshot.cc",
    "src/core/snapshot.h",
    "src/rewrite/candidate.cc",
    "src/rewrite/pipeline.cc",
    "src/rewrite/rewrite_service.cc",
    "src/rewrite/rewriter.cc",
)

# Where the RCU-publish rule applies.
SERVE_PREFIX = "src/serve/"

# The only tree allowed to touch raw x86 intrinsics; everything else
# goes through the dispatched kernel tables (util/simd/simd.h).
SIMD_PREFIX = "src/util/simd/"

# Where the fused-multiply-add rule applies: the whole library, the
# kernel tree included.
SRC_PREFIX = "src/"

# Trees the tree-walk mode scans. Tests are out of scope: gtest's own
# idioms (and deliberate death-test UB probes) would drown the signal.
SCAN_ROOTS = ("src", "bench", "examples")

WAIVER_RE = re.compile(r"srpp:allow\(([a-z-]+)\)(?::\s*(\S.*))?")

_UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
_ATOMIC_SP_RE = re.compile(r"\batomic\s*<\s*(?:std\s*::\s*)?shared_ptr\s*<")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines.

    Keeps the output exactly as long as the input so byte offsets (and
    therefore line numbers) in the stripped text match the original.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments_only(text):
    """Blanks comments but keeps string/char literals, preserving offsets.

    The metric-naming rule inspects string literals, so it needs the
    inverse of strip_comments_and_strings: comments gone (metric names
    quoted in prose must not trigger it), literals intact.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def _matching_angle(text, open_index):
    """Index of the '>' closing the '<' at open_index, or -1."""
    depth = 0
    for i in range(open_index, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
    return -1


def collect_unordered_names(stripped):
    """Variable/field names declared with an unordered container type."""
    names = set()
    for m in _UNORDERED_DECL_RE.finditer(stripped):
        close = _matching_angle(stripped, m.end() - 1)
        if close < 0:
            continue
        rest = stripped[close + 1:close + 160]
        name = re.match(r"\s*&?\s*([A-Za-z_]\w*)", rest)
        if name:
            names.add(name.group(1))
    return names


def collect_atomic_shared_ptr_names(stripped):
    """Names of std::atomic<std::shared_ptr<...>> members/variables."""
    names = set()
    for m in _ATOMIC_SP_RE.finditer(stripped):
        open_index = stripped.rfind("<", 0, m.end())
        # Walk back to the atomic's own '<' (first one in the match).
        open_index = stripped.index("<", m.start())
        close = _matching_angle(stripped, open_index)
        if close < 0:
            continue
        rest = stripped[close + 1:close + 160]
        name = re.match(r"\s*([A-Za-z_]\w*)", rest)
        if name:
            names.add(name.group(1))
    return names


def _is_comment_line(line):
    stripped = line.lstrip()
    return (stripped == "" or stripped.startswith("//")
            or stripped.startswith("/*") or stripped.startswith("*"))


def find_waivers(text):
    """target_line -> {(source_line, rule, reason_ok)}.

    A waiver on a code line covers that line. A waiver inside a comment
    block covers the first code line after the block, so a multi-line
    justification above the flagged statement works naturally.
    """
    lines = text.splitlines()
    waivers = {}
    for line_no, line in enumerate(lines, start=1):
        for m in WAIVER_RE.finditer(line):
            entry = (line_no, m.group(1), bool(m.group(2)))
            targets = {line_no}
            if _is_comment_line(line):
                k = line_no + 1
                while k <= len(lines) and _is_comment_line(lines[k - 1]):
                    k += 1
                if k <= len(lines):
                    targets.add(k)
            for t in targets:
                waivers.setdefault(t, set()).add(entry)
    return waivers


def _range_for_findings(path, stripped, unordered_names):
    findings = []
    # One nesting level of parens inside the for(...) head is enough for
    # this codebase's structured bindings and casts.
    for m in re.finditer(
            r"\bfor\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)", stripped):
        head = m.group(1)
        parts = re.split(r"(?<!:):(?!:)", head, maxsplit=1)
        if len(parts) != 2:
            continue
        # Identifiers inside parentheses are call arguments, not the
        # container being iterated (`for (x : F(bids))` iterates F's
        # return value).
        expr = parts[1]
        while True:
            reduced = re.sub(r"\([^()]*\)", "", expr)
            if reduced == expr:
                break
            expr = reduced
        idents = set(_IDENT_RE.findall(expr))
        hit = sorted(idents & unordered_names)
        if hit:
            findings.append(Finding(
                path, _line_of(stripped, m.start()), "unordered-iteration",
                f"range-for over unordered container '{hit[0]}' in a "
                "determinism-critical file; hash order must not reach "
                "exports — sort first or waive with the reason"))
    return findings


def _relaxed_findings(path, stripped, atomic_sp_names):
    findings = []
    for m in re.finditer(r"\bmemory_order_relaxed\b", stripped):
        # The enclosing statement: back to the previous ; { or } and
        # forward to the next ;.
        begin = max(stripped.rfind(";", 0, m.start()),
                    stripped.rfind("{", 0, m.start()),
                    stripped.rfind("}", 0, m.start())) + 1
        end = stripped.find(";", m.end())
        statement = stripped[begin:end if end >= 0 else len(stripped)]
        idents = set(_IDENT_RE.findall(statement))
        hit = sorted(idents & atomic_sp_names)
        if hit:
            findings.append(Finding(
                path, _line_of(stripped, m.start()), "relaxed-publish",
                f"memory_order_relaxed on shared_ptr-publishing atomic "
                f"'{hit[0]}'; RCU publication needs acquire/release"))
    return findings


def _naked_new_findings(path, stripped):
    findings = []
    for m in re.finditer(r"\bnew\b", stripped):
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "naked-new",
            "naked new; use make_unique/make_shared or a container"))
    for m in re.finditer(r"\bdelete\b", stripped):
        before = stripped[:m.start()].rstrip()
        # `= delete;` declarations and `operator delete` are not the
        # resource-management pattern this rule is after.
        if before.endswith("=") or before.endswith("operator"):
            continue
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "naked-new",
            "naked delete; ownership belongs in a smart pointer"))
    return findings


def _raw_assert_findings(path, stripped):
    findings = []
    for m in re.finditer(r"\bassert\s*\(", stripped):
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "raw-assert",
            "assert() compiles out under NDEBUG; use SRPP_CHECK "
            "(util/logging.h) so the invariant holds in release builds"))
    return findings


_INTRINSIC_IDENT_RE = re.compile(r"\b(?:_mm\w*|__m(?:64|128|256|512)\w*)\b")
_INTRINSIC_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"]\w*(?:immintrin|x86intrin|intrin)\.h[>"]')


def _raw_intrinsics_findings(path, stripped):
    findings = []
    for m in _INTRINSIC_INCLUDE_RE.finditer(stripped):
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "raw-intrinsics",
            "intrinsics header included outside src/util/simd/; use the "
            "kernel tables in util/simd/simd.h"))
    for m in _INTRINSIC_IDENT_RE.finditer(stripped):
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "raw-intrinsics",
            f"raw x86 intrinsic '{m.group(0)}' outside src/util/simd/; "
            "vector code belongs behind the kernel-table interface"))
    return findings


_FMA_RE = re.compile(
    r"\b(?:_mm\w*_fn?m(?:add|sub)\w*|(?:__builtin_)?fma[fl]?\s*\()")


def _fused_multiply_add_findings(path, stripped):
    findings = []
    for m in _FMA_RE.finditer(stripped):
        name = m.group(0).rstrip("( ")
        findings.append(Finding(
            path, _line_of(stripped, m.start()), "fused-multiply-add",
            f"'{name}' fuses a multiply-add; every SIMD level must round "
            "like the scalar kernels (separate multiply and add) to keep "
            "exports byte-identical"))
    return findings


# Unit suffixes accepted per registration call. SetInfo pins an _info
# gauge; plain gauges may also be _info (the collector emits them).
_METRIC_SUFFIXES_BY_KIND = {
    "GetCounter": ("_total",),
    "GetGauge": ("_total", "_seconds", "_bytes", "_ratio", "_info"),
    "GetHistogram": ("_total", "_seconds", "_bytes", "_ratio"),
    "SetInfo": ("_info",),
    # Standalone literal: the kind is unknown, any unit suffix passes.
    None: ("_total", "_seconds", "_bytes", "_ratio", "_info"),
}

_METRIC_REGISTRATION_RE = re.compile(
    r'\b(GetCounter|GetGauge|GetHistogram|SetInfo)\s*\(\s*"([^"\n]*)"')
# A literal that IS a metric name (nothing but the name between the
# quotes); "srpp_..._sum{..." parser prefixes and prose never match.
_METRIC_LITERAL_RE = re.compile(r'"(srpp_\w+)"')


def _metric_name_problem(name, kind):
    """Why `name` breaks the naming policy, or None when it is fine."""
    if not name.startswith("srpp_"):
        return "must start with 'srpp_'"
    if not re.fullmatch(r"srpp_[a-z0-9_]+", name):
        return "may only use [a-z0-9_] after the prefix"
    suffixes = _METRIC_SUFFIXES_BY_KIND[kind]
    if not name.endswith(suffixes):
        listed = "/".join(suffixes)
        return f"needs a unit suffix ({listed})"
    return None


def _metric_naming_findings(path, text):
    code = strip_comments_only(text)
    findings = []
    checked = set()  # (line, name): registration sites beat the generic scan
    for m in _METRIC_REGISTRATION_RE.finditer(code):
        kind, name = m.group(1), m.group(2)
        line = _line_of(code, m.start(2))
        checked.add((line, name))
        problem = _metric_name_problem(name, kind)
        if problem:
            findings.append(Finding(
                path, line, "metric-naming",
                f"metric name '{name}' {problem}; see the naming policy "
                "in docs/OBSERVABILITY.md"))
    for m in _METRIC_LITERAL_RE.finditer(code):
        name = m.group(1)
        line = _line_of(code, m.start(1))
        if (line, name) in checked:
            continue
        problem = _metric_name_problem(name, None)
        if problem:
            findings.append(Finding(
                path, line, "metric-naming",
                f"metric name '{name}' {problem}; see the naming policy "
                "in docs/OBSERVABILITY.md"))
    return findings


def lint_file(rel_path, text, unordered_names, atomic_sp_names):
    """All findings for one file, before waivers. `rel_path` uses '/'."""
    stripped = strip_comments_and_strings(text)
    findings = []
    if rel_path in DETERMINISM_CRITICAL:
        findings.extend(_range_for_findings(
            rel_path, stripped, unordered_names))
    if rel_path.startswith(SERVE_PREFIX):
        findings.extend(_relaxed_findings(
            rel_path, stripped, atomic_sp_names))
    if not rel_path.startswith(SIMD_PREFIX):
        findings.extend(_raw_intrinsics_findings(rel_path, stripped))
    if rel_path.startswith(SRC_PREFIX):
        findings.extend(_fused_multiply_add_findings(rel_path, stripped))
    findings.extend(_naked_new_findings(rel_path, stripped))
    findings.extend(_raw_assert_findings(rel_path, stripped))
    findings.extend(_metric_naming_findings(rel_path, text))
    return findings


def apply_waivers(findings, waivers_by_path):
    """Filters waived findings; flags waivers that are malformed/unused.

    Returns (kept_findings, waiver_errors).
    """
    kept = []
    used = set()  # (path, source_line, rule)
    errors = []
    for f in findings:
        waived = False
        file_waivers = waivers_by_path.get(f.path, {})
        for src_line, rule, has_reason in file_waivers.get(f.line, ()):
            if rule != f.rule:
                continue
            used.add((f.path, src_line, rule))
            if has_reason:
                waived = True
            else:
                errors.append(Finding(
                    f.path, src_line, rule,
                    "waiver without a reason; write "
                    f"srpp:allow({rule}): <why it is sound>"))
        if not waived:
            kept.append(f)
    for path, waivers in waivers_by_path.items():
        seen_sources = set()
        for entries in waivers.values():
            seen_sources |= entries
        for src_line, rule, _has_reason in seen_sources:
            if rule not in RULES:
                errors.append(Finding(
                    path, src_line, rule,
                    f"waiver names unknown rule '{rule}'"))
            elif (path, src_line, rule) not in used:
                errors.append(Finding(
                    path, src_line, rule,
                    "unused waiver (nothing it covers triggers the "
                    "rule); delete it"))
    return kept, errors


def lint_tree(repo_root, paths=None):
    """Lints the given relative paths (default: the standard scan roots).

    Returns the final finding list (waivers applied, waiver errors
    included).
    """
    if not paths:
        paths = []
        for root in SCAN_ROOTS:
            top = os.path.join(repo_root, root)
            for dirpath, _dirnames, filenames in os.walk(top):
                for name in sorted(filenames):
                    if name.endswith((".h", ".cc")):
                        full = os.path.join(dirpath, name)
                        paths.append(os.path.relpath(full, repo_root))
    paths = sorted(p.replace(os.sep, "/") for p in paths)

    texts = {}
    for rel in paths:
        with open(os.path.join(repo_root, rel), encoding="utf-8") as f:
            texts[rel] = f.read()

    # Container/atomic names are collected across the whole scan set so a
    # member declared in a header is recognized in its .cc file.
    unordered_names = set()
    atomic_sp_names = set()
    for rel, text in texts.items():
        stripped = strip_comments_and_strings(text)
        unordered_names |= collect_unordered_names(stripped)
        if rel.startswith(SERVE_PREFIX):
            atomic_sp_names |= collect_atomic_shared_ptr_names(stripped)

    findings = []
    waivers_by_path = {}
    for rel, text in texts.items():
        findings.extend(
            lint_file(rel, text, unordered_names, atomic_sp_names))
        waivers_by_path[rel] = find_waivers(text)

    kept, waiver_errors = apply_waivers(findings, waivers_by_path)
    result = kept + waiver_errors
    result.sort(key=lambda f: (f.path, f.line, f.rule))
    return result


def main():
    parser = argparse.ArgumentParser(
        description="simrankpp invariant linter")
    parser.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument(
        "paths", nargs="*",
        help="repo-relative files to lint (default: src/ bench/ examples/)")
    options = parser.parse_args()

    paths = []
    for p in options.paths:
        rel = os.path.relpath(
            os.path.abspath(p), options.repo_root).replace(os.sep, "/")
        if rel.startswith(".."):
            print(f"error: {p} is outside --repo-root", file=sys.stderr)
            return 2
        if rel.endswith((".h", ".cc")):
            paths.append(rel)

    if options.paths and not paths:
        print("lint_invariants: no .h/.cc files among the given paths; OK")
        return 0

    findings = lint_tree(options.repo_root, paths or None)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
