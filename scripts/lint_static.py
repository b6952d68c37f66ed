#!/usr/bin/env python3
"""Project lint pass: concurrency hygiene + naming invariants. Stdlib only.

Usage:
    lint_static.py [--repo DIR]   lint the repo; exit 0 clean, 1 on findings
    lint_static.py --self-test    prove the linter catches its seeded bad
                                  corpus and passes the good one; exit 0
                                  iff the linter itself behaves
    lint_static.py --demo-bad     lint only the seeded bad corpus as if it
                                  were a repo; exits nonzero (the CI leg
                                  runs this inverted to pin that a dirty
                                  tree actually fails)

Rules:

  R1 raw-sync   No naked std::mutex / condition_variable / lock_guard /
                unique_lock / scoped_lock outside the sync layer
                (src/util/ordered_mutex.h). Service code must use
                util::OrderedMutex + util::LockGuard/UniqueLock so every
                acquisition carries a lock rank and a thread-safety
                capability. std::condition_variable_any and std::once_flag
                stay legal: both work through the annotated wrappers.

  R2 datapath   No rand() / std::random_device / system_clock / getenv in
                src/. Datapath randomness must route through util::Rng
                (seeded, replayable) and timing through steady_clock;
                tests and scripts are exempt (chaos soak reads its knobs
                from the environment by design).

  R3 series     Every metric name passed to .counter()/.gauge()/
                .histogram() in src/ must be a string literal AND appear
                in src/telemetry/series_catalog.h; every catalog entry
                must be registered somewhere. Scrape spans lines: a
                registration with the literal on the continuation line
                still counts.

  R4 tests      Every tests/test_*.cpp must be registered in
                CMakeLists.txt, either by name or by a tests/*.cpp glob.

  R5 punning    No reinterpret_cast to float* or to a std::(u)int*_t*
                pointer in src/: reading one type's storage through
                another's pointer breaks strict aliasing. Read bytes with
                std::memcpy / std::bit_cast, or pass std::as_bytes spans.
                SIMD casts (__m256i*, __m128i*) for loadu/storeu stay
                legal.

  R6 uncalled   Every function declared in a src/ header must have a
                caller in src/, bench/, examples/, perfbench/ or tests/:
                a call `name(` (plain, qualified, or through `.` or `->`)
                that is not a declaration or an out-of-line definition (a
                type right before `name(`, or `Type Class::name(`), or an
                address `&Class::name`. A bare `name` -- a parameter, a
                variable or a data member of the same name -- is not a
                call. A test counts as a caller; there is no allowlist.
                A name with no call is reported at every declaration,
                so same-name dead functions surface in one run.
                Preprocessor lines and
                #define'd names are ignored, and src/util/
                thread_annotations.h is skipped: its lowercase names are
                attribute spellings, not functions.

  R7 instance-label
                No std::to_string(...fetch_add(...)) in src/ outside
                src/telemetry/. That is a label value drawn from a
                private counter, whose series outlive the object; an
                object labels its series through telemetry::InstanceLabel,
                which retires them when the object dies.

Comments and (for R1/R2/R5/R6) string literals are stripped before
matching, so prose about std::mutex does not trip the lint.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# C++ text utilities

# One alternation so comment markers inside strings and quotes inside
# comments cannot confuse each other.
_TOKEN_RE = re.compile(
    r'//[^\n]*'
    r'|/\*.*?\*/'
    r'|"(?:[^"\\\n]|\\.)*"'
    r"|'(?:[^'\\\n]|\\.)*'",
    re.S)


def _blank_preserving_newlines(text):
    return "".join(c if c == "\n" else " " for c in text)


def strip_comments(text, strip_strings=False):
    """Blank out comments (and optionally string/char literals), keeping
    every byte offset and line number identical to the original."""
    def repl(m):
        tok = m.group(0)
        if tok.startswith("//") or tok.startswith("/*"):
            return _blank_preserving_newlines(tok)
        if strip_strings:
            return tok[0] + " " * (len(tok) - 2) + tok[-1]
        return tok
    return _TOKEN_RE.sub(repl, text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def cpp_files(root, subdirs):
    out = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cpp", ".h", ".hpp", ".cc")):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


# ---------------------------------------------------------------------------
# Rules

RAW_SYNC_RE = re.compile(
    r'std\s*::\s*('
    r'mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|'
    r'shared_mutex|shared_timed_mutex|'
    r'condition_variable|'          # _any is fine: no \b match on the '_'
    r'lock_guard|unique_lock|scoped_lock|shared_lock'
    r')\b')

# (pattern, label) — matched against comment- and string-stripped text.
DATAPATH_BANS = [
    (re.compile(r'(?<![\w:.])rand\s*\('), "rand()"),
    (re.compile(r'(?<![\w:.])srand\s*\('), "srand()"),
    (re.compile(r'\brandom_device\b'), "std::random_device"),
    (re.compile(r'\bsystem_clock\b'), "system_clock"),
    (re.compile(r'(?<![\w:.])getenv\s*\('), "getenv()"),
]

PUNNING_RE = re.compile(
    r'reinterpret_cast\s*<\s*(?:(?:const|volatile)\s+)*'
    r'(float|(?:std\s*::\s*)?u?int(?:8|16|32|64)_t)'
    r'\s*(?:(?:const|volatile)\s*)*\*')

TO_STRING_RE = re.compile(r'(?<![\w.>])(?:std\s*::\s*)?to_string\s*\(')

SERIES_CALL_RE = re.compile(
    r'\.\s*(counter|gauge|histogram)\s*\(\s*("?)', re.S)
SERIES_LITERAL_RE = re.compile(
    r'\.\s*(counter|gauge|histogram)\s*\(\s*"([A-Za-z0-9_:]+)"', re.S)
CATALOG_NAME_RE = re.compile(r'"([a-z0-9_]+)"')


def lint_raw_sync(root, findings, sync_layer):
    for path in cpp_files(root, ("src", "tests", "bench", "examples")):
        rel = os.path.relpath(path, root)
        if rel in sync_layer:
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw, strip_strings=True)
        for m in RAW_SYNC_RE.finditer(text):
            findings.append(
                f"{rel}:{line_of(text, m.start())}: [raw-sync] naked "
                f"std::{m.group(1)}; use util::OrderedMutex / "
                f"util::LockGuard / util::UniqueLock (src/util/"
                f"ordered_mutex.h) so the lock carries a rank")


def lint_datapath(root, findings):
    for path in cpp_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw, strip_strings=True)
        for pat, label in DATAPATH_BANS:
            for m in pat.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [datapath] {label} "
                    f"in src/; datapaths must stay seeded/replayable "
                    f"(util::Rng, steady_clock) and env-independent")


def lint_punning(root, findings):
    for path in cpp_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw, strip_strings=True)
        for m in PUNNING_RE.finditer(text):
            target = re.sub(r"\s+", "", m.group(1))
            findings.append(
                f"{rel}:{line_of(text, m.start())}: [punning] "
                f"reinterpret_cast to {target}* in src/; load the bytes "
                f"with std::memcpy / std::bit_cast or pass std::as_bytes")


def call_args(text, open_paren):
    """The text between the parenthesis at `open_paren` and its match."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def lint_instance_label(root, findings):
    for path in cpp_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        if rel.startswith(os.path.join("src", "telemetry") + os.sep):
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw, strip_strings=True)
        for m in TO_STRING_RE.finditer(text):
            if re.search(r'\bfetch_add\b', call_args(text, m.end() - 1)):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [instance-label] "
                    f"std::to_string(...fetch_add(...)) label value; its "
                    f"series would outlive the object: use "
                    f"telemetry::InstanceLabel")


def load_catalog(root):
    path = os.path.join(root, "src", "telemetry", "series_catalog.h")
    if not os.path.exists(path):
        return path, None
    with open(path, encoding="utf-8") as f:
        text = strip_comments(f.read())
    return path, set(CATALOG_NAME_RE.findall(text))


def lint_series(root, findings):
    cat_path, catalog = load_catalog(root)
    if catalog is None:
        findings.append(
            f"{os.path.relpath(cat_path, root)}: [series] catalog header "
            f"missing; every metric series name must be indexed there")
        return
    registered = {}
    for path in cpp_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") == "src/telemetry/series_catalog.h":
            continue
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        literal_starts = {m.start() for m in SERIES_LITERAL_RE.finditer(text)}
        for m in SERIES_CALL_RE.finditer(text):
            if m.start() not in literal_starts:
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [series] "
                    f".{m.group(1)}() call whose name is not a string "
                    f"literal; dynamic names dodge the catalog cross-check")
        for m in SERIES_LITERAL_RE.finditer(text):
            name = m.group(2)
            registered.setdefault(name, f"{rel}:{line_of(text, m.start())}")
            if name not in catalog:
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [series] series "
                    f"'{name}' not in src/telemetry/series_catalog.h; "
                    f"add it there or fix the drifted name")
    for name in sorted(catalog - set(registered)):
        findings.append(
            f"src/telemetry/series_catalog.h: [series] catalog entry "
            f"'{name}' is registered nowhere in src/; dead entries hide "
            f"real drift")


def lint_tests_registered(root, findings):
    cml = os.path.join(root, "CMakeLists.txt")
    if not os.path.exists(cml):
        findings.append("CMakeLists.txt: [tests] missing")
        return
    with open(cml, encoding="utf-8") as f:
        cmake = f.read()
    # file(GLOB ... tests/*.cpp) registers everything in one shot.
    has_glob = re.search(
        r'file\s*\(\s*GLOB[^)]*tests/\*\.cpp', cmake, re.S) is not None
    tests_dir = os.path.join(root, "tests")
    if not os.path.isdir(tests_dir):
        return
    for name in sorted(os.listdir(tests_dir)):
        if not (name.startswith("test_") and name.endswith(".cpp")):
            continue
        if has_glob or name in cmake or name[:-len(".cpp")] in cmake:
            continue
        findings.append(
            f"tests/{name}: [tests] not registered in CMakeLists.txt "
            f"(no glob and no mention); it will never run in CI")


# R6: a declaration is `name(` right after a type (after the last `;`, `{`,
# `}` or access-specifier `:`), optionally behind decl-specifiers and with
# an out-of-line `Class::` chain between type and name.
_ID = r'[A-Za-z_]\w*'
_TARGS = r'(?:\s*<[^;{}]*>)?'
DECL_PREFIX_RE = re.compile(
    r'\s*(?:(?:static|inline|constexpr|consteval|virtual|explicit|friend|'
    r'extern)\s+|\[\[[^\]]*\]\]\s*|template\s*<[^;{}]*>\s*)*'
    r'(?:(?:const|volatile|unsigned|signed|long|short|typename)\s+)*'
    rf'(?:::\s*)?(?P<type>{_ID}){_TARGS}(?:\s*::\s*{_ID}{_TARGS})*'
    r'(?:\s+const)?(?:\s+|\s*[*&]+\s*)'
    rf'(?:{_ID}{_TARGS}\s*::\s*)*', re.S)
DECL_BOUNDARY_RE = re.compile(r'[;{}]|(?<!:):(?!:)')
# Words that can stand right before `name(` without being its type.
NOT_A_TYPE = {
    "return", "throw", "new", "delete", "else", "case", "goto", "co_return",
    "co_yield", "co_await", "sizeof", "alignof", "decltype", "typeid",
    "operator", "using", "namespace", "class", "struct", "union", "enum",
    "if", "for", "while", "switch", "do", "catch", "not", "and", "or"}
NAME_PAREN_RE = re.compile(rf'\b({_ID})\s*\(')
# A call: `name(` or `name<targs>(`.
CALL_RE = re.compile(rf'\b({_ID})(?:\s*<[^;{{}}()]*>)?\s*\(')
# A class's name: its constructors are not candidates.
CLASS_RE = re.compile(rf'\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?({_ID})')
# `&Class::name` (or `&ns::Class::name`): a member function's address.
ADDRESS_RE = re.compile(rf'&\s*(?:{_ID}{_TARGS}\s*::\s*)+({_ID})\b')
PREPROCESSOR_RE = re.compile(r'^[ \t]*#(?:[^\n]*\\\n)*[^\n]*', re.M)
DEFINE_RE = re.compile(rf'#\s*define\s+({_ID})')
UNCALLED_SCOPE = ("src", "bench", "examples", "perfbench", "tests")
UNCALLED_SKIP = "src/util/thread_annotations.h"


BUILTIN_TYPES = {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "auto"}


def is_initializer(text, open_paren, classes):
    """True when the parentheses at `open_paren` hold one bare name that is
    no type: `std::vector<double> sorted(xs_);` makes a variable, not a
    function."""
    close = text.find(")", open_paren)
    inner = text[open_paren + 1:close].strip() if close >= 0 else ""
    return (re.fullmatch(_ID, inner) is not None
            and inner not in BUILTIN_TYPES and inner not in classes)


def is_declaration(text, start):
    """True when the `name(` at `start` declares or defines name."""
    window = text[max(0, start - 400):start]
    cut = 0
    for m in DECL_BOUNDARY_RE.finditer(window):
        cut = m.end()
    m = DECL_PREFIX_RE.fullmatch(window[cut:])
    return m is not None and m.group("type") not in NOT_A_TYPE


def lint_uncalled(root, findings):
    texts = {}
    macros = set()
    for path in cpp_files(root, UNCALLED_SCOPE):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        macros.update(DEFINE_RE.findall(raw))
        text = strip_comments(raw, strip_strings=True)
        texts[rel] = PREPROCESSOR_RE.sub(
            lambda m: _blank_preserving_newlines(m.group(0)), text)
    classes = set()
    for text in texts.values():
        classes.update(CLASS_RE.findall(text))
    # Every declaration of a name, not just its first: two dead functions
    # of one name (overloads, or two classes' methods) are two findings.
    declared = {}
    for rel, text in texts.items():
        if not (rel.startswith("src/") and rel.endswith(".h")):
            continue
        if rel == UNCALLED_SKIP:
            continue
        for m in NAME_PAREN_RE.finditer(text):
            name = m.group(1)
            if (name not in macros
                    and name not in classes and name not in NOT_A_TYPE
                    and is_declaration(text, m.start())
                    and not is_initializer(text, m.end() - 1, classes)):
                declared.setdefault(name, []).append(
                    (rel, line_of(text, m.start())))
    called = set()
    for text in texts.values():
        for m in CALL_RE.finditer(text):
            name = m.group(1)
            if (name in declared and name not in called
                    and not is_declaration(text, m.start())):
                called.add(name)
        called.update(m.group(1) for m in ADDRESS_RE.finditer(text))
    uncalled = sorted((where, name) for name, wheres in declared.items()
                      if name not in called for where in wheres)
    for (rel, line), name in uncalled:
        findings.append(
            f"{rel}:{line}: [uncalled] {name}() has no caller in "
            f"{'/, '.join(UNCALLED_SCOPE)}/; delete it or call it "
            f"(a test counts)")


SYNC_LAYER = (
    "src/util/ordered_mutex.h",
    # The sync layer's own test: layout static_asserts against std::mutex.
    "tests/test_ordered_mutex.cpp",
)


def lint_repo(root, sync_layer=SYNC_LAYER):
    findings = []
    lint_raw_sync(root, findings, set(sync_layer))
    lint_datapath(root, findings)
    lint_punning(root, findings)
    lint_series(root, findings)
    lint_tests_registered(root, findings)
    lint_uncalled(root, findings)
    lint_instance_label(root, findings)
    return findings


# ---------------------------------------------------------------------------
# Self-test corpus: tiny repos seeded in a temp dir.

GOOD_FILES = {
    "CMakeLists.txt": 'file(GLOB FPISA_TEST_SOURCES CONFIGURE_DEPENDS '
                      'tests/*.cpp)\n',
    "src/telemetry/series_catalog.h":
        'inline constexpr std::string_view kOk = "demo_ops_total";\n',
    "src/good.cpp": (
        '// Comment mentioning std::mutex and rand() is fine.\n'
        'const char* s = "std::mutex in a string is fine too";\n'
        'util::OrderedMutex mu{util::lock_rank::kStats};\n'
        'std::condition_variable_any cv;  // _any is legal\n'
        'auto& c = reg.counter(\n'
        '    "demo_ops_total", "ops", {});\n'
        '// reinterpret_cast<float*>(p) in a comment is fine.\n'
        'const __m256i v = _mm256_loadu_si256(\n'
        '    reinterpret_cast<const __m256i*>(bytes + 4 * i));\n'
        'auto lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));\n'
        'const std::byte* b = reinterpret_cast<const std::byte*>(p);\n'),
    "tests/test_good.cpp": "// registered via the glob\n",
    # R6: every declared function has a caller (qualified, member, or a
    # test); constructors, out-of-line definitions and macros are not
    # candidates.
    "src/api.h": (
        'namespace demo {\n'
        'std::uint64_t draw(std::uint64_t n);\n'
        '#define DEMO_GUARDED_BY(x) guarded_by(x)\n'
        'class Widget {\n'
        ' public:\n'
        '  explicit Widget(int n);\n'
        '  [[nodiscard]] const std::vector<int>& items() const;\n'
        '  Link& link(int host) { return links_[host]; }\n'
        '  static constexpr int checked() { return 1; }\n'
        '  int spare() const { return 0; }\n'
        '  std::vector<int> copy() const {\n'
        '    std::vector<int> sorted(links_);\n'
        '    return sorted;\n'
        '  }\n'
        ' private:\n'
        '  std::vector<Link> links_ DEMO_GUARDED_BY(mu_);\n'
        '};\n'
        '}  // namespace demo\n'),
    "src/api.cpp": (
        'std::uint64_t demo::draw(std::uint64_t n) { return n; }\n'
        'const std::vector<int>& demo::Widget::items() const {\n'
        '  return {};\n'
        '}\n'),
    "bench/use_api.cpp": (
        'int main() {\n'
        '  demo::Widget w(3);\n'
        '  const auto n = demo::draw(4);\n'
        '  demo::draw(5);\n'
        '  for (int i : w.items()) (void)i;\n'
        '  (void)w.copy();\n'
        '  auto by_pointer = &demo::Widget::spare;\n'
        '  return &w.link(0) != nullptr;\n'
        '}\n'),
    "tests/test_api.cpp": 'static_assert(demo::Widget::checked() == 1);\n',
    # R7: the telemetry layer may draw label values from a counter; a
    # fetch_add outside to_string's argument, or in a comment, is fine.
    "src/telemetry/labels.cpp": (
        'std::string fresh() { return std::to_string(next.fetch_add(1)); }\n'),
    "src/labelled.cpp": (
        '// std::to_string(next_id.fetch_add(1)) was the old way.\n'
        'const std::string id = label_.value();\n'
        'pending.fetch_add(1);\n'
        'const std::string shard = std::to_string(s);\n'
        'out += to_string(count) + std::to_string(seq.load());\n'),
}

BAD_FILES = {
    "CMakeLists.txt": 'add_executable(test_registered '
                      'tests/test_registered.cpp)\n',
    "src/telemetry/series_catalog.h":
        'inline constexpr std::string_view kGhost = "ghost_series_total";\n',
    "src/bad_sync.cpp": 'static std::mutex naked_mu;\n'
                        'std::lock_guard<std::mutex> lk(naked_mu);\n',
    "src/bad_datapath.cpp": (
        'int jitter = rand() % 7;\n'
        'std::random_device rd;\n'
        'auto t = std::chrono::system_clock::now();\n'
        'const char* knob = getenv("FPISA_KNOB");\n'),
    "src/bad_series.cpp": (
        'auto& c = reg.counter("undeclared_series_total", "x", {});\n'
        'auto& g = reg.gauge(dynamic_name, "x", {});\n'),
    "src/bad_punning.cpp": (
        'const float* f = reinterpret_cast<const float*>(bytes);\n'
        'auto* u = reinterpret_cast<std::uint32_t*>(values.data());\n'
        'auto* w = reinterpret_cast< const volatile std :: int64_t * >(p);\n'
        'auto* h = reinterpret_cast<uint16_t const*>(p);\n'),
    "tests/test_registered.cpp": "// fine\n",
    "tests/test_orphan.cpp": "// never added to CMakeLists\n",
    # R6: declared, defined out of line, named in a comment and a string,
    # and called nowhere.
    "src/dead.h": (
        'class Rng {\n'
        ' public:\n'
        '  std::uint64_t zipf(std::uint64_t n, double alpha);\n'
        '  [[nodiscard]] static constexpr float next_float() { return 0; }\n'
        '  Link& uplink(int host) { return up_[host]; }\n'
        '  std::vector<Point> sweep(const Rates& r) const;\n'
        '};\n'),
    "src/dead.cpp": (
        '// zipf(n, 1.2) draws a skewed key.\n'
        'std::uint64_t Rng::zipf(std::uint64_t n, double alpha) {\n'
        '  const char* doc = "zipf(n, alpha)";\n'
        '  return n;\n'
        '}\n'
        'std::vector<Point>\n'
        'Rng::sweep(const Rates& r) const { return {}; }\n'),
    # R6: accessors whose names occur only as a parameter, a local and
    # another struct's data member -- never called.
    "src/cluster.h": (
        'class ShardRouter {\n'
        ' public:\n'
        '  RoutingPolicy policy() const { return policy_; }\n'
        '  std::size_t total_slots() const { return total_; }\n'
        '  int num_shards() const { return n_; }\n'
        '};\n'),
    "src/cluster.cpp": (
        'ShardRouter::ShardRouter(RoutingPolicy policy, int n)\n'
        '    : policy_(policy), n_(n) {}\n'
        'void plan(const Options& opts) {\n'
        '  const std::size_t total_slots = opts.slots * 2;\n'
        '  use(opts.num_shards, total_slots);\n'
        '}\n'),
    # R6: two classes' same-name methods, both uncalled: two findings.
    "src/twins.h": (
        'class Star {\n'
        ' public:\n'
        '  void rewind();\n'
        '};\n'
        'class Wire {\n'
        ' public:\n'
        '  void rewind() { t_ = 0; }\n'
        '};\n'),
    # R7: label values drawn from a private counter, on one line and split.
    "src/leaky.cpp": (
        'static std::atomic<int> next_id{0};\n'
        'const std::string id = std::to_string(next_id.fetch_add(1));\n'
        'svc_id_ = std::to_string(\n'
        '    next.fetch_add(1, std::memory_order_relaxed));\n'),
}

# Every rule tag the bad corpus must trip, with a substring that pins the
# specific finding (not just "something failed").
BAD_EXPECT = [
    "bad_sync.cpp:1: [raw-sync] naked std::mutex",
    "bad_sync.cpp:2: [raw-sync] naked std::lock_guard",
    "bad_datapath.cpp:1: [datapath] rand()",
    "bad_datapath.cpp:2: [datapath] std::random_device",
    "bad_datapath.cpp:3: [datapath] system_clock",
    "bad_datapath.cpp:4: [datapath] getenv()",
    "bad_punning.cpp:1: [punning] reinterpret_cast to float*",
    "bad_punning.cpp:2: [punning] reinterpret_cast to std::uint32_t*",
    "bad_punning.cpp:3: [punning] reinterpret_cast to std::int64_t*",
    "bad_punning.cpp:4: [punning] reinterpret_cast to uint16_t*",
    "bad_series.cpp:1: [series] series 'undeclared_series_total'",
    "bad_series.cpp:2: [series] .gauge() call whose name is not a string",
    "catalog entry 'ghost_series_total' is registered nowhere",
    "tests/test_orphan.cpp: [tests] not registered",
    "src/dead.h:3: [uncalled] zipf()",
    "src/dead.h:4: [uncalled] next_float()",
    "src/dead.h:5: [uncalled] uplink()",
    "src/dead.h:6: [uncalled] sweep()",
    "src/cluster.h:3: [uncalled] policy()",
    "src/cluster.h:4: [uncalled] total_slots()",
    "src/cluster.h:5: [uncalled] num_shards()",
    "src/twins.h:3: [uncalled] rewind()",
    "src/twins.h:7: [uncalled] rewind()",
    "src/leaky.cpp:2: [instance-label]",
    "src/leaky.cpp:3: [instance-label]",
]


def seed_corpus(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def self_test():
    import tempfile
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good")
        seed_corpus(good, GOOD_FILES)
        findings = lint_repo(good, sync_layer=())
        if findings:
            ok = False
            print("self-test: good corpus should lint clean but got:")
            for f in findings:
                print(f"  - {f}")
        bad = os.path.join(tmp, "bad")
        seed_corpus(bad, BAD_FILES)
        findings = lint_repo(bad, sync_layer=())
        for expect in BAD_EXPECT:
            if not any(expect in f for f in findings):
                ok = False
                print(f"self-test: bad corpus missed expected finding: "
                      f"{expect!r}")
        print(f"self-test: good corpus 0 findings, bad corpus "
              f"{len(findings)} findings, {len(BAD_EXPECT)} expectations "
              f"{'met' if ok else 'NOT met'}")
    return 0 if ok else 1


def demo_bad():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        seed_corpus(tmp, BAD_FILES)
        return report(lint_repo(tmp, sync_layer=()))


def report(findings):
    if findings:
        print(f"FAIL: {len(findings)} finding(s)")
        for f in findings:
            print(f"  - {f}")
        return 1
    print("OK: static lint clean (raw-sync, datapath, punning, series, "
          "tests, uncalled, instance-label)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--demo-bad", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.demo_bad:
        return demo_bad()
    return report(lint_repo(args.repo))


if __name__ == "__main__":
    sys.exit(main())
