#!/usr/bin/env python3
"""Static analysis for fscache (docs/STATIC_ANALYSIS.md).

One tool, one parser: every rule below runs over the same model,
built from src/, tools/ and bench/ by the dependency-free C++
tokenizer/scope parser shipped in this file. All of them guard one
property: simulation output must be a pure function of configuration
and seeds (the SweepRunner contract: FS_JOBS=k output bit-identical
to FS_JOBS=1, and any two runs of the same binary identical).

Text rules
----------
Scoped by path, over each file's comment- and literal-stripped lines.

raw-random
    src/sim, src/partition, src/ranking, src/cache must not construct
    their own randomness (std::rand, srand, random_device, mt19937,
    drand48, ...). All randomness flows through src/common's seeded
    fscache::Rng so a cell's streams are derived from its seed.

wall-clock
    Same scope: no reads of real time (time(), clock_gettime,
    std::chrono::*_clock::now, gettimeofday). Wall-clock values leak
    nondeterminism into results and break run-to-run identity.
    (Benchmark timing lives in bench/, outside the scope.)

unordered-aggregation
    src/stats and src/sim are result-aggregation paths: tables, JSON
    and metrics built there must not depend on hash-container
    iteration order, so unordered_map/unordered_set are banned there
    outright (use std::map, sorted vectors, or index-keyed vectors).
    The determinism pass below catches the same containers behind an
    alias or `auto`; this rule catches the direct spelling.

float-accum
    Accumulating into a float/double in src/stats without a named
    policy hides a numerical-stability decision. Any `x += ...` or
    its spelled-out form `x = x + ...` where x is float/double must
    carry a policy annotation (see below), as must std::accumulate
    folding into a float (floating init argument or float target).

hot-path-container
    src/cache, src/ranking and src/sim sit on the per-access hot
    path: node-based hash containers (unordered_map/unordered_set)
    cost a pointer chase plus an allocation per operation there, and
    their iteration order is a latent determinism hazard. Use
    common/flat_map.hh (open addressing, zero steady-state
    allocation) or index-keyed vectors instead. In src/sim the
    stricter unordered-aggregation rule takes precedence, so a line
    fires exactly one of the two rules. Not subsumed by
    no-alloc-on-hot-path: a lookup does not allocate, and a field no
    hot root reaches is never visited.

unchecked-sto
    tools/ and bench/ must not call bare std::sto* (stoi, stoull,
    stod, ...): those accept trailing junk ("12abc" parses as 12) and
    throw ungreppable std::invalid_argument on garbage. Use the
    checked parsers in common/arg_parser.hh (parseInt64Arg,
    parseU64Arg, parseDoubleArg) which validate the full token and
    exit with a diagnostic naming the flag and the offending value.

swallowed-exception
    src/ must not contain a `catch (...)` whose handler neither
    rethrows (`throw;`) nor converts the error into a typed outcome.
    A silently swallowed exception is how state corruption escapes
    the self-checking layer (src/check). The two sanctioned
    catch-all sites (the thread pool's exception trampoline and the
    cell guard's outcome conversion) are allowlisted by path below.

unchecked-net
    src/ must not discard the return value of send/recv/connect/
    accept at statement position: a TCP peer can vanish at any
    instant, so an unchecked send silently loses a frame and an
    unchecked recv throws away the only EOF/error signal the caller
    gets. Assign and check the result (common/net.cc's writeAllFd
    and FrameReader show the shape), or justify a deliberate
    fire-and-forget with an allow().

signal-handler-safety
    A function installed as a signal handler (`.sa_handler = f`,
    `.sa_sigaction = f` or `signal(SIG, f)` in the same file) may
    only call async-signal-safe functions: heap allocation, stdio,
    std::string, locks, exit() or throw inside the handler deadlocks
    or corrupts state exactly when the crash report matters most.
    The check is lexical over the handler's own body; keep handlers
    self-contained, like src/check/breadcrumb.cc's sink()/sinkU64().

Semantic passes
---------------
Over src/ only: declarations, types and call graphs.

no-alloc-on-hot-path
    Walks the call graph from the hot roots
    (fscache::PartitionedCache::access / ::accessBatch, and
    fscache::StackDistGenerator::next) and reports
    every reachable heap allocation: operator new, the malloc
    family, make_unique/make_shared, and growth calls on allocating
    std:: containers (push_back, resize, ...). Functions marked
    FS_COLD (src/common/annotations.hh) are off the hot path by
    contract and are not descended into. Amortized growth to a
    bounded high-water mark (e.g. a reused candidate buffer) is
    legal but must be visibly annotated with
    `// fs-analyze: allow(hot-path-alloc) <why>`; the runtime
    witness (tests/test_hot_alloc.cc) then proves the steady state
    allocation-free.

determinism
    Resolves `using`/`typedef` aliases and declared field/local
    types, so a hash container smuggled into a result-aggregation
    scope (src/stats, src/sim) behind an alias or iterated through
    `auto` is still caught. Rules: unordered-type (declaration whose
    canonical type is a hash container) and unordered-iteration
    (range-for over an expression of hash-container type —
    iteration order is unspecified and would leak into results).

lock-discipline
    For every class that owns a std::mutex, each non-atomic,
    non-const data member must either carry
    FS_GUARDED_BY(<mutex>) — after which every access outside a
    constructor/destructor must be lexically under a
    lock_guard/unique_lock/scoped_lock on that mutex — or carry an
    explicit `// fs-analyze: allow(lock-discipline) <why>` exemption
    (e.g. const after construction). Methods whose name ends in
    "Locked" are assumed called with the guard held (document the
    caller contract at the declaration). This is the static
    complement to the TSan stress harness: TSan proves observed
    interleavings race-free, this proves the annotated discipline
    total.

layering
    Enforces the include DAG between src/ subsystems
    (common -> {stats,trace,cache,alloc} -> ranking -> check ->
    {analytic,runner,partition} -> sim -> core). A back-edge
    (#include from a lower layer into a higher one) fails the pass;
    CMake link lines cannot catch these for header-only reach.

Suppressions and policies
-------------------------
A finding is suppressed by a directive on the same line or the
contiguous comment block directly above it:

    // fs-analyze: allow(<rule>) <justification - required>
    // fs-analyze: float-accum(<policy-name>) <optional notes>

An allow() with no justification is itself a `directive` finding:
the point is a paper trail for the next reader. There is no
baseline: a new finding is fixed or gets an allow() in place.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# ------------------------------------------------------------------
# Configuration: project contracts
# ------------------------------------------------------------------

# Call-graph roots of the per-access hot path. The SIMD
# victim-selection kernels (common/simd.hh) run on every miss but
# are reached through a function-pointer dispatch table the walker
# cannot follow, so each backend's entry points are roots of their
# own. Trace generation runs once per access too, and the
# stack-distance generator dominates it.
HOT_ROOTS = (
    "fscache::PartitionedCache::access",
    "fscache::PartitionedCache::accessBatch",
    "fscache::StackDistGenerator::next",
    "fscache::simd::scalar::argmaxPlain",
    "fscache::simd::scalar::argmaxMasked",
    "fscache::simd::scalar::argmaxScaled",
    "fscache::simd::scalar::thresholdGe",
    "fscache::simd::detail::argmaxPlainSse2",
    "fscache::simd::detail::argmaxMaskedSse2",
    "fscache::simd::detail::argmaxScaledSse2",
    "fscache::simd::detail::thresholdGeSse2",
    "fscache::simd::detail::argmaxPlainAvx2",
    "fscache::simd::detail::argmaxMaskedAvx2",
    "fscache::simd::detail::argmaxScaledAvx2",
    "fscache::simd::detail::thresholdGeAvx2",
)

# Free functions that allocate.
ALLOC_CALLS = frozenset({
    "malloc", "calloc", "realloc", "strdup", "strndup",
    "aligned_alloc", "posix_memalign", "make_unique", "make_shared",
    "to_string", "strprintf",
})

# Methods that can grow an allocating container. "Strong" ones are
# reported even when the receiver's type cannot be resolved; the
# rest only fire when the receiver resolves to a std:: container
# (so FlatMap::insert and OrderStatIndex::insert are followed into
# their bodies instead of being misread as hash-map growth).
STRONG_GROWTH_METHODS = frozenset({
    "push_back", "emplace_back", "push_front", "emplace_front",
    "resize", "reserve", "append",
})
WEAK_GROWTH_METHODS = frozenset({"insert", "emplace", "assign"})

ALLOCATING_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(vector|deque|list|map|set|multimap|multiset|"
    r"unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|basic_string|string|wstring|function|"
    r"ostringstream|stringstream|istringstream|queue|stack|"
    r"priority_queue)\b")

UNORDERED_TYPE_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")

# Result-aggregation scopes: the determinism pass and the
# unordered-aggregation text rule.
AGGREGATION_SCOPE = ("src/stats", "src/sim")

MUTEX_TYPE_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|shared_|timed_|recursive_timed_)?"
    r"mutex\b")
ATOMIC_TYPE_RE = re.compile(r"\bstd\s*::\s*atomic\b|\batomic_flag\b")
CONDVAR_TYPE_RE = re.compile(r"\bcondition_variable\b")
LOCK_DECL_RE = re.compile(
    r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# Include DAG: directory -> directories it may include from (its own
# directory is always allowed). Mirrors src/CMakeLists.txt link
# structure plus transitive closure; see docs/STATIC_ANALYSIS.md.
LAYERS = {
    "common": set(),
    "stats": {"common"},
    "trace": {"common"},
    "cache": {"common"},
    "alloc": {"common"},
    "ranking": {"common", "cache"},
    "check": {"common", "cache", "ranking"},
    "analytic": {"common", "cache", "ranking", "check"},
    "partition": {"common", "cache", "ranking", "check", "analytic"},
    "runner": {"common", "cache", "ranking", "check"},
    "sim": {"common", "stats", "trace", "cache", "alloc", "ranking",
            "check", "analytic", "partition", "runner"},
    "core": {"common", "stats", "trace", "cache", "alloc", "ranking",
             "check", "analytic", "partition", "runner", "sim"},
}

# Trees the model is built from (the semantic passes read src/ only)
# and the fixture tree the real scan skips: its snippets are
# supposed to fail.
SCAN_DIRS = ("src", "tools", "bench")
FIXTURE_DIR = "tools/analyze_fixtures"

DIRECTIVE_RE = re.compile(
    r"//\s*fs-analyze:\s*(allow|float-accum)\(([\w-]+)\)\s*(.*)")

# -- text rules: patterns and path scopes ---------------------------

RAW_RANDOM_PATTERNS = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\b[dlm]rand48\b|\brandom\s*\(\s*\)"), "libc rand48/random"),
]

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bstd::time\b|(?<![\w:_.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clock"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b|\btimespec_get\b"),
     "POSIX clock read"),
    (re.compile(r"(?<![\w:_.])clock\s*\(\s*\)"), "clock()"),
]

UNCHECKED_STO_RE = re.compile(r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\b")

# A socket call in statement position (line begins with the call)
# discards its result. `(void)send(...)` and `n = recv(...)` don't
# match: the former is an explicit discard, the latter is checked.
UNCHECKED_NET_RE = re.compile(
    r"^\s*(?:::\s*)?(send|recv|connect|accept4?)\s*\(")

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
THROW_RE = re.compile(r"\bthrow\b")

# Signal-handler installation sites. The captured name is the
# handler; SIG_DFL/SIG_IGN and other SIG_* constants are skipped.
HANDLER_ASSIGN_RE = re.compile(
    r"\.sa_(?:handler|sigaction)\s*=\s*(?:&\s*)?([A-Za-z_]\w*)")
HANDLER_SIGNAL_RE = re.compile(
    r"\b(?:std::)?signal\s*\([^,()]+,\s*(?:&\s*)?([A-Za-z_]\w*)\s*\)")

# Not async-signal-safe (POSIX 2.4.3). write()/sigaction()/raise()
# and friends stay legal; these are the common hazards.
UNSAFE_IN_HANDLER = [
    (re.compile(r"\b(?:malloc|calloc|realloc|free|strdup)\s*\("),
     "heap allocation"),
    (re.compile(r"(?<![\w:.])(?:new|delete)\b"), "new/delete"),
    (re.compile(r"\b(?:v?f?printf|s(?:n)?printf|vsnprintf|puts|"
                r"fputs|fputc|putchar|fwrite|fread|fflush|fopen|"
                r"fclose|perror)\s*\("), "stdio"),
    (re.compile(r"\bstd::c(?:out|err|log)\b"), "iostream"),
    (re.compile(r"\bstd::(?:string|vector|ostringstream)\b"),
     "allocating container"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|mutex)\b"
                r"|\.lock\s*\("), "lock"),
    (re.compile(r"(?<![\w_])exit\s*\("), "exit() (use _exit/_Exit)"),
    (re.compile(r"\bthrow\b"), "throw"),
]

# `double name` / `float &name` followed by something that is not an
# opening paren (which would make `name` a function). Heuristic: does
# not see through typedefs or containers-of-double; the goal is the
# common accumulator shapes (members, locals, params).
FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\s+[&*]?\s*([A-Za-z_]\w*)\s*[;=,){\[]")
COMPOUND_ADD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\+|-)=(?!=)")
# The spelled-out form of the same accumulation: `x = x + ...`.
SELF_ASSIGN_ADD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?<![=!<>])=(?![=])\s*\1\s*[+\-]")
# std::accumulate folds with operator+ one element at a time: flagged
# when the init argument is a floating literal or the result lands
# in a declared float/double.
ACCUMULATE_CALL_RE = re.compile(r"\bstd::accumulate\s*\(")
ACCUMULATE_TARGET_RE = re.compile(
    r"\s*(?:double\b|float\b)?\s*([A-Za-z_]\w*)\s*=")
FLOAT_LITERAL_RE = re.compile(r"\b\d+\.\d*(?:[eE][+-]?\d+)?[fF]?")

# The sanctioned catch-all sites: the pool forwards the captured
# exception_ptr to the submitter, and the guard converts the error
# into a typed CellOutcome. Both "produce a typed outcome".
SWALLOW_ALLOWLIST = frozenset({
    "src/runner/thread_pool.cc",
    "src/runner/cell_guard.hh",
})

RANDOM_SCOPE = ("src/sim", "src/partition", "src/ranking", "src/cache")
HOT_PATH_SCOPE = ("src/cache", "src/ranking", "src/sim")
ACCUM_SCOPE = ("src/stats",)
STO_SCOPE = ("tools", "bench")

CPP_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "do", "else", "case",
    "new", "delete", "sizeof", "alignof", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "throw",
    "catch", "try", "const", "constexpr", "consteval", "constinit",
    "static", "inline", "virtual", "override", "final", "explicit",
    "friend", "public", "private", "protected", "template",
    "typename", "using", "namespace", "class", "struct", "enum",
    "union", "void", "bool", "char", "short", "int", "long",
    "float", "double", "unsigned", "signed", "auto", "decltype",
    "noexcept", "default", "break", "continue", "goto", "mutable",
    "operator", "this", "nullptr", "true", "false", "and", "or",
    "not", "co_await", "co_return", "co_yield", "requires",
    "concept", "typedef", "extern", "register", "thread_local",
    "volatile", "alignas", "export", "asm",
})


# ------------------------------------------------------------------
# Model: the IR the passes read
# ------------------------------------------------------------------

@dataclass
class CallSite:
    name: str                 # simple callee name
    qual: tuple               # explicit qualifiers ("check", ...)
    recv: str                 # normalized receiver text, "" if none
    line: int = 0


@dataclass
class AllocSite:
    kind: str                 # "new" / "call" / "container-growth"
    what: str                 # human detail ("operator new", ...)
    recv: str = ""            # receiver text for growth calls
    method: str = ""          # method name for growth calls
    line: int = 0
    strong: bool = True       # report even with unresolved receiver


@dataclass
class IterSite:
    expr: str                 # normalized range expression
    line: int = 0


@dataclass
class FieldUse:
    recv: str                 # "" for implicit this
    name: str
    line: int = 0
    locks: frozenset = frozenset()   # normalized guard exprs held


@dataclass
class FieldInfo:
    name: str
    type: str
    line: int = 0
    guard: str = ""           # FS_GUARDED_BY argument, normalized
    is_static: bool = False
    is_const: bool = False


@dataclass
class ClassInfo:
    qname: str
    name: str
    file: str
    line: int = 0
    bases: list = field(default_factory=list)     # simple names
    fields: dict = field(default_factory=dict)    # name -> FieldInfo
    method_names: set = field(default_factory=set)


@dataclass
class FunctionInfo:
    qname: str
    name: str
    cls: str                  # owning class qname, "" for free fns
    file: str
    line: int = 0
    cold: bool = False
    hot: bool = False
    calls: list = field(default_factory=list)
    allocs: list = field(default_factory=list)
    iters: list = field(default_factory=list)
    uses: list = field(default_factory=list)
    locals: dict = field(default_factory=dict)    # name -> type


@dataclass
class FileInfo:
    path: str                 # repo-relative, posix
    code: list = field(default_factory=list)      # (line, stripped)
    includes: list = field(default_factory=list)  # (header, line)
    aliases: dict = field(default_factory=dict)   # name -> target
    # line -> (kind, rule-or-policy, why); kind: allow / float-accum
    directives: dict = field(default_factory=dict)
    comment_only: set = field(default_factory=set)
    audit_lines: set = field(default_factory=set)  # FSCACHE_AUDIT(...)


class Model:
    def __init__(self):
        self.files = {}            # path -> FileInfo
        self.functions = {}        # qname -> [FunctionInfo]
        self.by_simple_name = {}   # name -> set(qnames)
        self.classes = {}          # qname -> ClassInfo
        self.class_by_name = {}    # simple name -> [qnames]
        self.derived = {}          # class qname -> set(derived qnames)
        self.aliases = {}          # simple alias name -> target type

    def add_function(self, fn: FunctionInfo):
        self.functions.setdefault(fn.qname, []).append(fn)
        self.by_simple_name.setdefault(fn.name, set()).add(fn.qname)

    def add_class(self, ci: ClassInfo):
        if ci.qname in self.classes:
            # Redeclaration (e.g. forward decl parsed as class):
            # merge fields/methods into the first record.
            prev = self.classes[ci.qname]
            prev.fields.update(ci.fields)
            prev.method_names.update(ci.method_names)
            prev.bases = prev.bases or ci.bases
            return
        self.classes[ci.qname] = ci
        self.class_by_name.setdefault(ci.name, []).append(ci.qname)

    def finalize(self):
        """Compute the transitive derived-class map."""
        direct = {}
        for ci in self.classes.values():
            for b in ci.bases:
                for bq in self.class_by_name.get(b, []):
                    direct.setdefault(bq, set()).add(ci.qname)
        for base in direct:
            seen = set()
            work = list(direct[base])
            while work:
                d = work.pop()
                if d in seen:
                    continue
                seen.add(d)
                work.extend(direct.get(d, ()))
            self.derived[base] = seen

    def resolve_class(self, simple: str) -> str:
        cands = self.class_by_name.get(simple, [])
        return cands[0] if cands else ""


@dataclass
class Finding:
    pass_name: str
    rule: str
    file: str
    line: int
    symbol: str
    message: str
    chain: list = field(default_factory=list)

    def render(self) -> str:
        tag = self.rule if self.rule == self.pass_name else \
            f"{self.pass_name}/{self.rule}"
        s = f"{self.file}:{self.line}: [{tag}] {self.symbol}: " \
            f"{self.message}"
        if self.chain:
            s += "\n    via " + " -> ".join(self.chain)
        return s

    def to_json(self) -> dict:
        return {
            "pass": self.pass_name,
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "chain": self.chain,
        }


class AnalyzerError(Exception):
    pass


# ------------------------------------------------------------------
# Frontend: comment stripping + tokenizer
# ------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
    (?P<id>[A-Za-z_]\w*)
  | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
  | (?P<punct>::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||
       [-+*/%&|^!=<>]=|\.\.\.|[{}()\[\];,:?~.<>+\-*/%&|^!=@])
""", re.VERBOSE)


def _strip_line(line: str) -> str:
    """Collapse string/char literals; cut // comments."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append('""' if quote == '"' else "' '")
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def stripped_lines(text: str):
    """Yield (lineno, code) with comments/literals removed."""
    in_block = False
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield no, ""
                continue
            line = line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield no, _strip_line(line)


@dataclass
class Tok:
    text: str
    line: int
    kind: str                 # "id" / "num" / "punct"


def tokenize(code_lines) -> list:
    toks = []
    for no, code in code_lines:
        for m in TOKEN_RE.finditer(code):
            kind = m.lastgroup
            toks.append(Tok(m.group(), no, kind))
    return toks


def norm_expr(tokens) -> str:
    """Normalize an expression token list: `->` becomes `.`, spaces
    dropped, so `queues_[q]->mu` == `queues_ [ q ] -> mu`."""
    parts = []
    for t in tokens:
        parts.append("." if t.text == "->" else t.text)
    return "".join(parts)


# ------------------------------------------------------------------
# Frontend: parser
# ------------------------------------------------------------------

class Frontend:
    """Token/scope-level C++ parser producing the Model.

    Every file under SCAN_DIRS gets its stripped lines and directives
    recorded (the text rules read those); files under src/ are also
    parsed. Not a full parser: it tracks namespaces, class bodies,
    function definitions, member declarations, aliases, call
    expressions and lock scopes, which is what the passes consume.
    Heuristics are documented inline; the fixture self-test pins the
    behavior."""

    def __init__(self, root: Path):
        self.root = root
        # Body scans deferred until every declaration is recorded:
        # fields commonly follow the methods that use them, and
        # out-of-line .cc definitions need the header's class.
        self._pending = []

    def build(self) -> Model:
        model = Model()
        fixtures = self.root / FIXTURE_DIR
        files = []
        for sub in SCAN_DIRS:
            d = self.root / sub
            if d.is_dir():
                files.extend(p for p in sorted(d.rglob("*"))
                             if p.suffix in (".hh", ".cc", ".hpp",
                                             ".cpp", ".h")
                             and fixtures not in p.parents)
        # Headers first so classes are known when .cc bodies are
        # scanned (field-use and receiver-type resolution).
        files.sort(key=lambda p: (p.suffix not in (".hh", ".hpp",
                                                   ".h"), str(p)))
        for p in files:
            self._parse_file(model, p)
        for fi, fn, toks, lo, hi, lex_cls in self._pending:
            ci = model.classes.get(fn.cls) if fn.cls else None
            self._scan_body(model, fi, fn, toks, lo, hi,
                            ci if ci is not None else lex_cls)
        self._pending.clear()
        model.finalize()
        return model

    # -- file level -------------------------------------------------

    def _parse_file(self, model: Model, path: Path):
        rel = path.relative_to(self.root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise AnalyzerError(f"unreadable {rel}: {e}") from e
        fi = FileInfo(path=rel, code=list(stripped_lines(text)))
        raw_lines = text.splitlines()
        for no, raw in enumerate(raw_lines, 1):
            m = DIRECTIVE_RE.search(raw)
            if m:
                fi.directives[no] = (m.group(1), m.group(2),
                                     m.group(3).strip())
            if raw.lstrip().startswith("//"):
                fi.comment_only.add(no)
        model.files[rel] = fi
        if not in_scope(rel, ("src",)):
            return                  # text rules only

        # Lines inside FSCACHE_AUDIT(...) arguments are runtime
        # audit-gated (src/check/audit.hh): cold by construction.
        # Track balanced parens from each macro head.
        audit_depth = 0
        for no, line in fi.code:
            col = 0
            if audit_depth == 0:
                m = re.search(r"\bFSCACHE_AUDIT\s*\(", line)
                if m is None:
                    continue
                fi.audit_lines.add(no)
                audit_depth = 1
                col = m.end()
            else:
                fi.audit_lines.add(no)
            for ch in line[col:]:
                if ch == "(":
                    audit_depth += 1
                elif ch == ")":
                    audit_depth -= 1
                    if audit_depth == 0:
                        break

        # Preprocessor: record includes, drop directive lines (and
        # macro continuation lines) before tokenizing.
        code = []
        skip_continuation = False
        for no, line in fi.code:
            ls = line.lstrip()
            if skip_continuation:
                skip_continuation = line.rstrip().endswith("\\")
                code.append((no, ""))
                continue
            if ls.startswith("#"):
                # Match against the raw line: stripped_lines has
                # already collapsed the quoted header name to "".
                minc = re.match(r'#\s*include\s+"([^"]+)"',
                                raw_lines[no - 1].lstrip())
                if minc:
                    fi.includes.append((minc.group(1), no))
                skip_continuation = line.rstrip().endswith("\\")
                code.append((no, ""))
                continue
            code.append((no, line))
        toks = tokenize(code)
        self._parse_scope(model, fi, toks, 0, len(toks), [], rel)

    # -- namespace/class level ---------------------------------------

    def _parse_scope(self, model, fi, toks, lo, hi, scope, rel,
                     cls: ClassInfo | None = None):
        """Parse declarations between toks[lo:hi] at namespace or
        class level. `scope` is the list of enclosing names."""
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == ";" or t.text == "}":
                i += 1
                continue
            if t.kind == "id" and t.text in ("public", "private",
                                             "protected"):
                # access specifier "public:"
                if i + 1 < hi and toks[i + 1].text == ":":
                    i += 2
                    continue
            if t.text == "template":
                # Skip the parameter list; the declaration follows.
                i = self._skip_angles(toks, i + 1, hi)
                continue
            if t.text == "namespace":
                i = self._parse_namespace(model, fi, toks, i, hi,
                                          scope, rel)
                continue
            if t.text in ("class", "struct", "union"):
                ni = self._parse_class(model, fi, toks, i, hi, scope,
                                       rel)
                if ni is not None:
                    i = ni
                    continue
                # fall through: elaborated type in a declaration
            if t.text == "enum":
                i = self._skip_enum(toks, i, hi)
                continue
            if t.text in ("using", "typedef"):
                i = self._parse_alias(model, fi, toks, i, hi)
                continue
            if t.text == "extern":
                i += 1
                continue
            # Generic declaration: scan to ';' or a body '{'.
            i = self._parse_declaration(model, fi, toks, i, hi,
                                        scope, rel, cls)

    def _skip_angles(self, toks, i, hi):
        if i < hi and toks[i].text == "<":
            depth = 0
            while i < hi:
                if toks[i].text == "<":
                    depth += 1
                elif toks[i].text == ">":
                    depth -= 1
                    if depth == 0:
                        return i + 1
                elif toks[i].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return i + 1
                elif toks[i].text in (";", "{"):
                    return i
                i += 1
        return i

    def _match_brace(self, toks, i, hi):
        """toks[i] == '{'; return index just past its match."""
        depth = 0
        while i < hi:
            if toks[i].text == "{":
                depth += 1
            elif toks[i].text == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return hi

    def _parse_namespace(self, model, fi, toks, i, hi, scope, rel):
        j = i + 1
        names = []
        while j < hi and toks[j].kind == "id":
            names.append(toks[j].text)
            j += 1
            if j < hi and toks[j].text == "::":
                j += 1
                continue
            break
        if j < hi and toks[j].text == "{":
            end = self._match_brace(toks, j, hi)
            self._parse_scope(model, fi, toks, j + 1, end - 1,
                              scope + names, rel)
            return end
        # `namespace x = y;` or malformed: skip to ';'
        while j < hi and toks[j].text != ";":
            j += 1
        return j + 1

    def _parse_class(self, model, fi, toks, i, hi, scope, rel):
        """Returns new index, or None if this isn't a definition."""
        j = i + 1
        # attributes / alignas: skip [[...]]
        name = None
        while j < hi:
            if toks[j].kind == "id" and toks[j].text not in ("final",
                                                             "alignas"):
                name = toks[j].text
                j += 1
            elif toks[j].text == "[":
                while j < hi and toks[j].text != "]":
                    j += 1
                j += 1
                continue
            break
        if name is None:
            return None
        bases = []
        if j < hi and toks[j].text == "final":
            j += 1
        if j < hi and toks[j].text == ":":
            j += 1
            while j < hi and toks[j].text != "{":
                if toks[j].kind == "id" and toks[j].text not in (
                        "public", "private", "protected", "virtual"):
                    # take the last identifier of a qualified base
                    base = toks[j].text
                    while (j + 2 < hi and toks[j + 1].text == "::"
                           and toks[j + 2].kind == "id"):
                        j += 2
                        base = toks[j].text
                    bases.append(base)
                    j = self._skip_angles(toks, j + 1, hi) - 1
                j += 1
        if j >= hi or toks[j].text != "{":
            return None          # forward declaration / variable
        qname = "::".join(scope + [name])
        ci = ClassInfo(qname=qname, name=name, file=rel,
                       line=toks[i].line, bases=bases)
        model.add_class(ci)
        end = self._match_brace(toks, j, hi)
        self._parse_scope(model, fi, toks, j + 1, end - 1,
                          scope + [name], rel,
                          cls=model.classes[qname])
        return end

    def _skip_enum(self, toks, i, hi):
        j = i
        while j < hi and toks[j].text not in ("{", ";"):
            j += 1
        if j < hi and toks[j].text == "{":
            j = self._match_brace(toks, j, hi)
        while j < hi and toks[j].text != ";":
            j += 1
        return j + 1

    def _parse_alias(self, model, fi, toks, i, hi):
        kw = toks[i].text
        j = i
        stmt = []
        while j < hi and toks[j].text != ";":
            stmt.append(toks[j])
            j += 1
        if kw == "using" and len(stmt) >= 4 and stmt[2].text == "=":
            name = stmt[1].text
            target = " ".join(t.text for t in stmt[3:])
            fi.aliases[name] = target
            model.aliases.setdefault(name, target)
        elif kw == "typedef" and len(stmt) >= 3:
            name = stmt[-1].text
            target = " ".join(t.text for t in stmt[1:-1])
            fi.aliases[name] = target
            model.aliases.setdefault(name, target)
        return j + 1

    # -- declarations ------------------------------------------------

    def _parse_declaration(self, model, fi, toks, i, hi, scope, rel,
                           cls):
        """One statement at namespace/class level starting at i."""
        j = i
        depth_p = depth_b = 0
        stmt = []
        body_at = -1
        saw_eq_at0 = False
        while j < hi:
            t = toks[j]
            if t.text == "(":
                depth_p += 1
            elif t.text == ")":
                depth_p -= 1
            elif t.text == "[":
                depth_b += 1
            elif t.text == "]":
                depth_b -= 1
            elif depth_p == 0 and depth_b == 0:
                if t.text == "=":
                    saw_eq_at0 = True
                elif t.text == ";":
                    break
                elif t.text == "{":
                    if saw_eq_at0:
                        # brace initializer: skip it, keep scanning
                        j = self._match_brace(toks, j, hi) - 1
                    else:
                        body_at = j
                        break
            stmt.append(t)
            j += 1

        if body_at >= 0:
            fn = self._classify_function(stmt, scope, rel, cls)
            end = self._match_brace(toks, body_at, hi)
            if fn is not None:
                model.add_function(fn)
                if cls is not None:
                    cls.method_names.add(fn.name)
                self._pending.append((fi, fn, toks, body_at + 1,
                                      end - 1, cls))
            elif cls is not None and stmt and \
                    not any(t.text == "(" for t in stmt):
                # `std::atomic<long> gen_{0};` — a brace-initialized
                # data member, not a body we failed to classify.
                self._record_member(model, fi, stmt, cls, rel)
                while end < hi and toks[end].text == ";":
                    end += 1
            return end

        # Declaration ending in ';'.
        if cls is not None and stmt:
            self._record_member(model, fi, stmt, cls, rel)
        return j + 1

    def _classify_function(self, stmt, scope, rel, cls):
        """Given statement tokens before a '{', find a function
        definition's name; None if this isn't one."""
        # Find the parameter list: the first identifier (or
        # operator / ~name) directly followed by '(' whose matching
        # ')' is followed only by a valid function suffix.
        n = len(stmt)
        k = 0
        while k < n:
            t = stmt[k]
            if t.kind != "id" and t.text not in ("operator", "~"):
                k += 1
                continue
            if t.text in CPP_KEYWORDS and t.text != "operator":
                k += 1
                continue
            name, after = self._declarator_name(stmt, k)
            if name is None or after >= n or stmt[after].text != "(":
                k += 1
                continue
            close = self._match_paren(stmt, after)
            if close < 0:
                return None
            if not self._valid_fn_suffix(stmt, close + 1):
                k = after + 1
                continue
            # Assemble the qualified name from `A::B::name`.
            quals = []
            q = k - 1
            while q - 1 >= 0 and stmt[q].text == "::" and \
                    stmt[q - 1].kind == "id":
                quals.insert(0, stmt[q - 1].text)
                q -= 2
            cold = any(x.text == "FS_COLD" for x in stmt[:after])
            hot = any(x.text == "FS_HOT" for x in stmt[:after])
            params = self._parse_params(stmt[after + 1:close])
            if cls is not None:
                owner = cls.qname
                qname = f"{owner}::{name}"
            elif quals:
                owner = "::".join(scope + quals) if scope else \
                    "::".join(quals)
                qname = f"{owner}::{name}"
            else:
                owner = ""
                qname = "::".join(scope + [name]) if scope else name
            fn = FunctionInfo(qname=qname, name=name, cls=owner,
                              file=rel, line=stmt[k].line,
                              cold=cold, hot=hot)
            fn.locals.update(params)
            return fn
        return None

    def _parse_params(self, toks):
        """Parameter list tokens -> {name: type_text}. Receivers
        named after a parameter then resolve to the declared type
        (so `out.clear()` on a vector& param is vector::clear, not
        a name-match across project classes)."""
        params = {}
        cur = []
        depth = 0
        groups = []
        for t in toks:
            if t.text in ("(", "[", "<", "{"):
                depth += 1
            elif t.text in (")", "]", ">", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                groups.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            groups.append(cur)
        for g in groups:
            # strip default argument
            for k, t in enumerate(g):
                if t.text == "=":
                    g = g[:k]
                    break
            if len(g) < 2:
                continue
            name_tok = g[-1]
            if name_tok.kind != "id" or \
                    name_tok.text in CPP_KEYWORDS:
                continue
            ty = " ".join(t.text for t in g[:-1])
            params[name_tok.text] = ty
        return params

    def _declarator_name(self, stmt, k):
        t = stmt[k]
        if t.text == "~" and k + 1 < len(stmt) and \
                stmt[k + 1].kind == "id":
            return "~" + stmt[k + 1].text, k + 2
        if t.text == "operator":
            j = k + 1
            sym = []
            while j < len(stmt) and stmt[j].text != "(":
                sym.append(stmt[j].text)
                j += 1
            # operator() has its symbol *be* parens: operator ( ) (
            if not sym and j + 1 < len(stmt) and \
                    stmt[j].text == "(" and stmt[j + 1].text == ")":
                return "operator()", j + 2
            return "operator" + "".join(sym), j
        if t.kind == "id":
            return t.text, k + 1
        return None, k

    def _match_paren(self, stmt, i):
        depth = 0
        while i < len(stmt):
            if stmt[i].text == "(":
                depth += 1
            elif stmt[i].text == ")":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return -1

    def _valid_fn_suffix(self, stmt, i):
        """After the param list: const/noexcept/override/...,
        optional trailing return, optional ctor-init list, then the
        statement must end (the '{' was the terminator)."""
        n = len(stmt)
        while i < n:
            t = stmt[i]
            if t.kind == "id" and t.text in ("const", "noexcept",
                                             "override", "final",
                                             "mutable", "volatile",
                                             "try", "FS_COLD",
                                             "FS_HOT"):
                i += 1
                continue
            if t.text == "(":      # noexcept(...)
                c = self._match_paren(stmt, i)
                if c < 0:
                    return False
                i = c + 1
                continue
            if t.text == "->":     # trailing return type
                i += 1
                continue
            if t.text == ":":      # ctor initializer list
                return True
            if t.text in ("&", "&&"):
                i += 1
                continue
            if t.text in ("<", ">", "::", ",", "[", "]") or \
                    t.kind == "id":
                # trailing-return-type tokens
                i += 1
                continue
            return False
        return True

    def _record_member(self, model, fi, stmt, cls, rel):
        """Class-level declaration ending in ';'. Distinguishes
        method declarations (have a param list) from data members."""
        if not stmt:
            return
        head = stmt[0].text
        if head in ("friend", "static_assert", "using", "typedef"):
            return
        if any(t.text == "operator" for t in stmt):
            return            # operator decl, never a data member
        # Strip FS_GUARDED_BY(...) before anything else: its paren
        # would otherwise make `long x FS_GUARDED_BY(mu_) = 0;` look
        # like a method declaration (`= 0` reads as pure-virtual).
        guard = ""
        for k, t in enumerate(stmt):
            if t.text == "FS_GUARDED_BY":
                close = self._match_paren(stmt, k + 1)
                if close > 0:
                    guard = norm_expr(stmt[k + 2:close])
                    stmt = stmt[:k] + stmt[close + 1:]
                break
        if not stmt:
            return
        # Method declaration?
        for k, t in enumerate(stmt):
            if t.text == "(" and k > 0 and stmt[k - 1].kind == "id" \
                    and stmt[k - 1].text not in CPP_KEYWORDS:
                close = self._match_paren(stmt, k)
                # `= delete` / `= default` / `= 0` after the param
                # list is still a method (deleted copy ctor etc.),
                # not a data member.
                special = (close >= 0 and close + 2 < len(stmt)
                           and stmt[close + 1].text == "="
                           and stmt[close + 2].text in
                           ("delete", "default", "0"))
                if close >= 0 and (special or self._valid_fn_suffix(
                        stmt, close + 1)):
                    name = stmt[k - 1].text
                    cls.method_names.add(name)
                    cold = any(x.text == "FS_COLD"
                               for x in stmt[:k])
                    if cold:
                        # Record a body-less cold marker so the
                        # no-alloc walk treats the method cold even
                        # if its definition lives in a .cc parsed
                        # with a different owner spelling.
                        qname = f"{cls.qname}::{name}"
                        fn = FunctionInfo(
                            qname=qname, name=name, cls=cls.qname,
                            file=rel, line=stmt[0].line, cold=True)
                        model.add_function(fn)
                    return
        # Data member. Find the declarator name: the last plain
        # identifier before '=', '{', '[' or end.
        body = stmt
        stop = len(body)
        for k, t in enumerate(body):
            if t.text in ("=", "{", "["):
                stop = k
                break
        name = None
        name_at = -1
        for k in range(stop - 1, -1, -1):
            if body[k].kind == "id" and \
                    body[k].text not in CPP_KEYWORDS:
                name = body[k].text
                name_at = k
                break
            if body[k].text in (">", ")"):
                break
        if name is None:
            return
        type_txt = " ".join(t.text for t in body[:name_at])
        is_static = any(t.text == "static" for t in body[:name_at])
        is_const = any(t.text in ("const", "constexpr")
                       for t in body[:name_at])
        cls.fields[name] = FieldInfo(
            name=name, type=type_txt, line=stmt[0].line,
            guard=guard, is_static=is_static, is_const=is_const)

    # -- function bodies ----------------------------------------------

    def _scan_body(self, model, fi, fn, toks, lo, hi, cls):
        depth = 0
        locks = []          # (depth, guard_expr, varname)
        i = lo
        field_names = set(cls.fields) if cls is not None else set()
        while i < hi:
            t = toks[i]
            if t.text == "{":
                depth += 1
                i += 1
                continue
            if t.text == "}":
                depth -= 1
                locks = [l for l in locks if l[0] <= depth]
                i += 1
                continue
            if t.text == "new":
                fn.allocs.append(AllocSite(
                    kind="new", what="operator new", line=t.line))
                i += 1
                continue
            if t.kind == "id" and LOCK_DECL_RE.fullmatch(t.text):
                ni = self._scan_lock_decl(toks, i, hi, depth, locks)
                if ni > i:
                    i = ni
                    continue
            if t.kind == "id" and t.text == "for" and i + 1 < hi \
                    and toks[i + 1].text == "(":
                ni = self._scan_range_for(toks, i, hi, fn)
                # fall through to normal scanning of the for-body
                i += 1
                continue
            if t.kind == "id" and t.text not in CPP_KEYWORDS:
                i = self._scan_id(model, fi, fn, toks, i, hi, depth,
                                  locks, field_names, cls)
                continue
            i += 1

    def _scan_lock_decl(self, toks, i, hi, depth, locks):
        """std::lock_guard<...> g(expr); records a held guard."""
        j = self._skip_angles(toks, i + 1, hi)
        if j < hi and toks[j].kind == "id":
            var = toks[j].text
            k = j + 1
            if k < hi and toks[k].text in ("(", "{"):
                close_tok = ")" if toks[k].text == "(" else "}"
                open_tok = toks[k].text
                d = 0
                args_start = k + 1
                while k < hi:
                    if toks[k].text == open_tok:
                        d += 1
                    elif toks[k].text == close_tok:
                        d -= 1
                        if d == 0:
                            break
                    k += 1
                # scoped_lock can hold several mutexes: split args
                # at top-level commas.
                args = toks[args_start:k]
                cur = []
                exprs = []
                pd = 0
                for a in args:
                    if a.text in ("(", "["):
                        pd += 1
                    elif a.text in (")", "]"):
                        pd -= 1
                    if a.text == "," and pd == 0:
                        exprs.append(cur)
                        cur = []
                    else:
                        cur.append(a)
                if cur:
                    exprs.append(cur)
                for e in exprs:
                    if e:
                        locks.append((depth, norm_expr(e), var))
                return k + 1
        return i + 1

    def _scan_range_for(self, toks, i, hi, fn):
        """for ( decl : expr ) — record the range expression."""
        close = i + 1
        d = 0
        colon = -1
        while close < hi:
            if toks[close].text == "(":
                d += 1
            elif toks[close].text == ")":
                d -= 1
                if d == 0:
                    break
            elif toks[close].text == ":" and d == 1 and colon < 0:
                prev = toks[close - 1].text
                nxt = toks[close + 1].text if close + 1 < hi else ""
                if prev != ":" and nxt != ":":
                    colon = close
            close += 1
        if colon > 0 and close > colon:
            fn.iters.append(IterSite(
                expr=norm_expr(toks[colon + 1:close]),
                line=toks[i].line))
        return close

    def _scan_id(self, model, fi, fn, toks, i, hi, depth, locks,
                 field_names, cls):
        """Identifier in a body: classify call / member use /
        local declaration. Returns the next scan index."""
        t = toks[i]
        nxt = toks[i + 1].text if i + 1 < hi else ""

        # Qualified chain: A::B::name — collect leading qualifiers.
        if nxt == "::":
            quals = [t.text]
            j = i + 1
            while j + 1 < hi and toks[j].text == "::" and \
                    toks[j + 1].kind == "id":
                quals.append(toks[j + 1].text)
                j += 2
            name = quals.pop()
            if LOCK_DECL_RE.fullmatch(name):
                # std::lock_guard<...> g(mu_); — the lock-decl scan
                # in _scan_body only sees unqualified spellings.
                ni = self._scan_lock_decl(toks, j - 1, hi, depth,
                                          locks)
                if ni > j - 1:
                    return ni
            if j < hi and toks[j].text == "(":
                self._record_call(fn, name, tuple(quals), "",
                                  toks[i].line)
            return j

        # Receiver chain behind the identifier?
        recv = ""
        if i - 1 >= 0 and toks[i - 1].text in (".", "->"):
            recv_toks = self._receiver_chain(toks, i - 1)
            recv = norm_expr(recv_toks)

        if nxt == "(":
            self._record_call(fn, t.text, (), recv, t.line)
            return i + 1

        # local declaration: Type [&*] name — record referenced
        # class-typed locals (Type is a known class or std type).
        if recv == "" and t.kind == "id" and nxt and \
                (nxt == "&" or nxt == "*" or
                 (i + 1 < hi and toks[i + 1].kind == "id")):
            self._maybe_local_decl(model, fn, toks, i, hi)

        # Member use (implicit this or through a receiver).
        if recv == "" and t.text in field_names:
            fn.uses.append(FieldUse(
                recv="", name=t.text, line=t.line,
                locks=frozenset(g for _, g, _ in locks)))
        elif recv and nxt != "(":
            fn.uses.append(FieldUse(
                recv=recv, name=t.text, line=t.line,
                locks=frozenset(g for _, g, _ in locks)))
        # `lk.unlock()` drops the guard early.
        if nxt == "(" or t.text != "unlock":
            pass
        return i + 1

    def _receiver_chain(self, toks, dot_at):
        """Walk back from a '.'/'->' to the start of the receiver
        postfix expression: identifiers, ::, balanced [] and ()."""
        j = dot_at - 1
        out_start = dot_at
        while j >= 0:
            t = toks[j]
            if t.text in ("]", ")"):
                close = t.text
                open_ = "[" if close == "]" else "("
                d = 0
                while j >= 0:
                    if toks[j].text == close:
                        d += 1
                    elif toks[j].text == open_:
                        d -= 1
                        if d == 0:
                            break
                    j -= 1
                # A paren group introduced by a control keyword is a
                # condition, not part of the receiver: in
                # `if (cond) x.reserve(...)` the receiver is `x`,
                # never `(cond)x`. A garbage receiver here is worse
                # than it looks — it defeats type resolution and
                # sends resolve_call into name-matching fan-out.
                if close == ")" and j > 0 and \
                        toks[j - 1].text in (
                            "if", "while", "for", "switch"):
                    break
                out_start = j
                j -= 1
                continue
            if t.kind == "id" or t.text in ("::", ".", "->", "this"):
                out_start = j
                j -= 1
                continue
            break
        return toks[out_start:dot_at]

    def _maybe_local_decl(self, model, fn, toks, i, hi):
        """Best-effort `Type [&*] name` local recording."""
        type_name = toks[i].text
        j = self._skip_angles(toks, i + 1, hi)
        k = j
        while k < hi and toks[k].text in ("&", "*", "const"):
            k += 1
        if k < hi and toks[k].kind == "id" and \
                toks[k].text not in CPP_KEYWORDS:
            after = toks[k + 1].text if k + 1 < hi else ""
            if after in ("=", ";", "(", "{", ":"):
                prev = toks[i - 1].text if i > 0 else ";"
                if prev in (";", "{", "}", "(", ","):
                    type_txt = " ".join(
                        x.text for x in toks[i:j])
                    fn.locals.setdefault(toks[k].text, type_txt)

    def _record_call(self, fn, name, quals, recv, line):
        if name in CPP_KEYWORDS:
            return
        if name in ("unlock",):
            # handled as a lock-scope event by callers; still record
            # nothing — guard removal is approximated by scope end.
            return
        fn.calls.append(CallSite(name=name, qual=quals, recv=recv,
                                 line=line))
        if name in ALLOC_CALLS:
            fn.allocs.append(AllocSite(
                kind="call", what=f"{name}()", line=line))
        elif recv and name in STRONG_GROWTH_METHODS:
            fn.allocs.append(AllocSite(
                kind="container-growth", what=f".{name}()",
                recv=recv, method=name, line=line, strong=True))
        elif recv and name in WEAK_GROWTH_METHODS:
            fn.allocs.append(AllocSite(
                kind="container-growth", what=f".{name}()",
                recv=recv, method=name, line=line, strong=False))


# ------------------------------------------------------------------
# Shared helpers for passes
# ------------------------------------------------------------------

def in_scope(rel: str, scope) -> bool:
    return any(rel == p or rel.startswith(p + "/") for p in scope)


def directive_for(fi: FileInfo, lineno: int):
    if lineno in fi.directives:
        return fi.directives[lineno]
    no = lineno - 1
    while no >= 1 and no in fi.comment_only:
        if no in fi.directives:
            return fi.directives[no]
        no -= 1
    return None


def suppressed(model: Model, finding: Finding, findings: list) -> bool:
    """True when an allow(<rule>) directive governs the line, or a
    float-accum(<policy>) one governs a float-accum finding. An
    allow() with no justification is itself reported."""
    fi = model.files.get(finding.file)
    if fi is None:
        return False
    d = directive_for(fi, finding.line)
    if d is None:
        return False
    kind, rule, why = d
    if kind == "float-accum":
        return finding.rule == "float-accum"
    if rule != finding.rule and rule != finding.pass_name:
        return False
    if not why:
        findings.append(Finding(
            pass_name=finding.pass_name, rule="directive",
            file=finding.file, line=finding.line,
            symbol=finding.symbol,
            message="allow() directive needs a justification"))
    return True


def canonical_type(model: Model, text: str, fi: FileInfo,
                   depth: int = 0) -> str:
    """Expand using/typedef aliases (file-local first)."""
    if depth > 8 or not text:
        return text
    out = []
    for word in re.split(r"(\W+)", text):
        target = None
        if word and re.fullmatch(r"[A-Za-z_]\w*", word):
            target = fi.aliases.get(word) if fi else None
            if target is None:
                target = model.aliases.get(word)
        if target and target != word:
            out.append(canonical_type(model, target, fi, depth + 1))
        else:
            out.append(word)
    return "".join(out)


def field_type(model: Model, cls_qname: str, name: str):
    ci = model.classes.get(cls_qname)
    seen = set()
    while ci is not None and ci.qname not in seen:
        seen.add(ci.qname)
        f = ci.fields.get(name)
        if f is not None:
            return f
        nxt = None
        for b in ci.bases:
            bq = model.resolve_class(b)
            if bq:
                nxt = model.classes.get(bq)
                break
        ci = nxt
    return None


INNER_PTR_RE = re.compile(
    r"\b(?:unique_ptr|shared_ptr)\s*<\s*(.*?)\s*>?\s*$")


def type_to_class(model: Model, type_txt: str) -> str:
    """Map a declared type's text to a known class qname."""
    txt = type_txt
    m = INNER_PTR_RE.search(txt)
    if m:
        txt = m.group(1)
    for word in re.findall(r"[A-Za-z_]\w*", txt):
        if word in ("std", "const", "unique_ptr", "shared_ptr"):
            continue
        q = model.resolve_class(word)
        if q:
            return q
    return ""


def resolve_receiver_type(model: Model, fn: FunctionInfo,
                          recv: str) -> str:
    """Best-effort type text of a receiver expression."""
    base = re.match(r"(?:this\.)?([A-Za-z_]\w*)", recv)
    if not base:
        return ""
    name = base.group(1)
    rest = recv[base.end():]
    ty = fn.locals.get(name, "")
    if not ty and fn.cls:
        f = field_type(model, fn.cls, name)
        if f is not None:
            ty = f.type
    if not ty:
        return ""
    # One level of [] / member chains: vector<unique_ptr<Queue>>
    # indexed gives Queue; deeper chains stay unresolved.
    if rest.startswith("["):
        inner = re.search(r"<\s*(.+)\s*>", ty)
        if inner:
            ty = inner.group(1)
            m = INNER_PTR_RE.search(ty)
            if m:
                ty = m.group(1)
    m2 = re.match(r"\]*\.([A-Za-z_]\w*)$", rest.lstrip("]"))
    if m2:
        cq = type_to_class(model, ty)
        f = field_type(model, cq, m2.group(1)) if cq else None
        if f is not None:
            ty = f.type
        else:
            return ""
    return ty


# ------------------------------------------------------------------
# Pass 1: no-alloc-on-hot-path
# ------------------------------------------------------------------

def resolve_call(model: Model, fn: FunctionInfo, call: CallSite):
    """Set of callee qnames inside the model (virtual dispatch is
    over-approximated by adding every override)."""
    out = set()

    def add_with_overrides(qname):
        if qname in model.functions:
            out.add(qname)
        if "::" in qname:
            cls, meth = qname.rsplit("::", 1)
            for d in model.derived.get(cls, ()):
                dq = f"{d}::{meth}"
                if dq in model.functions:
                    out.add(dq)

    if call.qual:
        joined = "::".join(call.qual + (call.name,))
        for cand in (joined, f"fscache::{joined}"):
            add_with_overrides(cand)
        if out:
            return out
        # Class-qualified method: resolve the class by simple name.
        cq = model.resolve_class(call.qual[-1])
        if cq:
            add_with_overrides(f"{cq}::{call.name}")
        return out

    if call.recv:
        ty = resolve_receiver_type(model, fn, call.recv)
        if ty:
            cq = type_to_class(model, ty)
            if cq:
                add_with_overrides(f"{cq}::{call.name}")
            # Resolved type: the answer is final. A std:: receiver
            # (no project class) must NOT fall through to name
            # matching — `scratch_.clear()` is vector::clear, not
            # every project class that happens to define clear().
            return out
        # Unresolved receiver: match by method name across known
        # classes, bounded to avoid absurd fan-out on generic names.
        cands = set()
        for cq2, ci in model.classes.items():
            if call.name in ci.method_names:
                cands.add(f"{cq2}::{call.name}")
        if 0 < len(cands) <= 16:
            for c in cands:
                add_with_overrides(c)
        return out

    # Bare name: own class' method (incl. bases), else free function.
    if fn.cls:
        cls = fn.cls
        seen = set()
        while cls and cls not in seen:
            seen.add(cls)
            if call.name in model.classes.get(
                    cls, ClassInfo("", "", "")).method_names:
                add_with_overrides(f"{cls}::{call.name}")
                return out
            ci = model.classes.get(cls)
            cls = model.resolve_class(ci.bases[0]) if ci and \
                ci.bases else ""
    for q in model.by_simple_name.get(call.name, ()):
        fns = model.functions.get(q, [])
        if fns and not fns[0].cls:
            add_with_overrides(q)
    return out


def is_cold(model: Model, qname: str) -> bool:
    return any(f.cold for f in model.functions.get(qname, ()))


def pass_no_alloc(model: Model, findings: list):
    missing = [r for r in HOT_ROOTS if r not in model.functions]
    if missing and len(missing) == len(HOT_ROOTS):
        findings.append(Finding(
            pass_name="no-alloc-on-hot-path", rule="missing-root",
            file="src/sim/partitioned_cache.hh", line=0,
            symbol=missing[0],
            message="no hot-path root found in the model — the "
                    "pass would silently verify nothing; update "
                    "HOT_ROOTS if the entry points moved"))
        return

    visited = set()
    parent = {}
    work = [r for r in HOT_ROOTS if r in model.functions]
    for r in work:
        parent[r] = None
    while work:
        qname = work.pop()
        if qname in visited or is_cold(model, qname):
            continue
        visited.add(qname)
        for fn in model.functions[qname]:
            if not fn.calls and not fn.allocs:
                continue
            chain = []
            p = qname
            while p is not None:
                chain.append(p.split("::")[-1])
                p = parent.get(p)
            chain.reverse()
            for site in fn.allocs:
                file_info = model.files.get(fn.file)
                if file_info is not None and \
                        site.line in file_info.audit_lines:
                    continue    # FSCACHE_AUDIT-gated: cold region
                if site.kind == "container-growth":
                    ty = resolve_receiver_type(model, fn, site.recv)
                    fi = model.files.get(fn.file)
                    cty = canonical_type(model, ty, fi)
                    if cty and not ALLOCATING_CONTAINER_RE.search(
                            cty):
                        continue        # FlatMap etc: walked instead
                    if not cty and not site.strong:
                        continue
                    what = (f"{site.recv}.{site.method}() grows "
                            f"{cty or 'an unresolved container'}")
                else:
                    what = site.what
                f = Finding(
                    pass_name="no-alloc-on-hot-path",
                    rule="hot-path-alloc", file=fn.file,
                    line=site.line, symbol=qname,
                    message=f"{what} is reachable from the access "
                            f"hot path; move it behind FS_COLD, "
                            f"pre-size the buffer, or annotate the "
                            f"amortized growth",
                    chain=chain)
                if not suppressed(model, f, findings):
                    findings.append(f)
            for call in fn.calls:
                for callee in resolve_call(model, fn, call):
                    if callee not in visited and \
                            not is_cold(model, callee):
                        parent.setdefault(callee, qname)
                        work.append(callee)


# ------------------------------------------------------------------
# Pass 2: determinism (type-aware)
# ------------------------------------------------------------------

def pass_determinism(model: Model, findings: list):
    # Declarations whose canonical type is a hash container, in
    # aggregation scopes: class fields, locals, and aliases.
    for cq, ci in model.classes.items():
        if not in_scope(ci.file, AGGREGATION_SCOPE):
            continue
        fi = model.files.get(ci.file)
        for fld in ci.fields.values():
            cty = canonical_type(model, fld.type, fi)
            if UNORDERED_TYPE_RE.search(cty) and \
                    not UNORDERED_TYPE_RE.search(fld.type):
                f = Finding(
                    pass_name="determinism", rule="unordered-type",
                    file=ci.file, line=fld.line,
                    symbol=f"{cq}::{fld.name}",
                    message=f"declared type resolves to a hash "
                            f"container ({cty.strip()}) in a "
                            f"result-aggregation scope; iteration "
                            f"order would leak into results")
                if not suppressed(model, f, findings):
                    findings.append(f)
    for fi in model.files.values():
        if not in_scope(fi.path, AGGREGATION_SCOPE):
            continue
        for name, target in fi.aliases.items():
            cty = canonical_type(model, target, fi)
            if UNORDERED_TYPE_RE.search(cty) and \
                    not UNORDERED_TYPE_RE.search(target):
                f = Finding(
                    pass_name="determinism", rule="unordered-type",
                    file=fi.path, line=0, symbol=name,
                    message=f"alias resolves to a hash container "
                            f"({cty.strip()}) in a result-"
                            f"aggregation scope")
                if not suppressed(model, f, findings):
                    findings.append(f)

    for fns in model.functions.values():
        for fn in fns:
            if not in_scope(fn.file, AGGREGATION_SCOPE):
                continue
            fi = model.files.get(fn.file)
            for name, ty in fn.locals.items():
                cty = canonical_type(model, ty, fi)
                if UNORDERED_TYPE_RE.search(cty) and \
                        not UNORDERED_TYPE_RE.search(ty):
                    f = Finding(
                        pass_name="determinism",
                        rule="unordered-type", file=fn.file,
                        line=fn.line, symbol=f"{fn.qname}::{name}",
                        message=f"local's declared type resolves "
                                f"to a hash container "
                                f"({cty.strip()}) in a result-"
                                f"aggregation scope")
                    if not suppressed(model, f, findings):
                        findings.append(f)
            for it in fn.iters:
                ty = resolve_receiver_type(model, fn, it.expr)
                cty = canonical_type(model, ty,
                                     fi) if ty else ""
                if cty and UNORDERED_TYPE_RE.search(cty):
                    f = Finding(
                        pass_name="determinism",
                        rule="unordered-iteration", file=fn.file,
                        line=it.line, symbol=fn.qname,
                        message=f"range-for over '{it.expr}' whose "
                                f"type resolves to a hash container "
                                f"({cty.strip()}); hash iteration "
                                f"order is unspecified and "
                                f"nondeterministic across libcs")
                    if not suppressed(model, f, findings):
                        findings.append(f)


# ------------------------------------------------------------------
# Pass 3: lock-discipline
# ------------------------------------------------------------------

def guard_matches(required: str, held: frozenset) -> bool:
    for h in held:
        if h == required:
            return True
        if h.endswith("." + required) or \
                required.endswith("." + h):
            return True
        # `*queues_[self]` style deref vs member path
        if h.lstrip("*") == required or \
                required.lstrip("*") == h:
            return True
    return False


def pass_lock_discipline(model: Model, findings: list):
    target_classes = {}
    for cq, ci in model.classes.items():
        if not ci.file.startswith("src/"):
            continue
        if any(MUTEX_TYPE_RE.search(f.type) and
               not ATOMIC_TYPE_RE.search(f.type)
               for f in ci.fields.values()):
            target_classes[cq] = ci

    guarded = {}     # (class qname, field) -> guard expr
    for cq, ci in target_classes.items():
        for fld in ci.fields.values():
            if MUTEX_TYPE_RE.search(fld.type) or \
                    CONDVAR_TYPE_RE.search(fld.type) or \
                    ATOMIC_TYPE_RE.search(fld.type):
                continue
            if fld.is_const or fld.is_static:
                continue
            if fld.guard:
                guarded[(cq, fld.name)] = fld.guard
                continue
            f = Finding(
                pass_name="lock-discipline", rule="lock-unannotated",
                file=ci.file, line=fld.line,
                symbol=f"{cq}::{fld.name}",
                message=f"shared mutable field of a mutex-holding "
                        f"class has no synchronization contract; "
                        f"add FS_GUARDED_BY(<mutex>) or an "
                        f"allow(lock-discipline) exemption with "
                        f"the reason (type: {fld.type.strip()})")
            if not suppressed(model, f, findings):
                findings.append(f)

    if not guarded:
        return
    # Class simple name -> qname for receiver-based uses.
    for fns in model.functions.values():
        for fn in fns:
            ci = target_classes.get(fn.cls)
            ctor_like = ci is not None and (
                fn.name == ci.name or fn.name == f"~{ci.name}")
            if ctor_like or fn.name.endswith("Locked"):
                continue
            for use in fn.uses:
                key = None
                required = None
                if not use.recv and ci is not None and \
                        (fn.cls, use.name) in guarded:
                    key = (fn.cls, use.name)
                    required = guarded[key]
                elif use.recv:
                    ty = resolve_receiver_type(model, fn, use.recv)
                    cq = type_to_class(model, ty) if ty else ""
                    if cq and (cq, use.name) in guarded:
                        key = (cq, use.name)
                        required = use.recv + "." + guarded[key]
                if key is None:
                    continue
                if guard_matches(required, use.locks):
                    continue
                f = Finding(
                    pass_name="lock-discipline",
                    rule="lock-unguarded-access", file=fn.file,
                    line=use.line, symbol=fn.qname,
                    message=f"access to '{use.name}' "
                            f"(FS_GUARDED_BY({guarded[key]})) "
                            f"without the guard held; take the "
                            f"lock, rename the method *Locked to "
                            f"document a held-by-caller contract, "
                            f"or annotate the exemption")
                if not suppressed(model, f, findings):
                    findings.append(f)


# ------------------------------------------------------------------
# Pass 4: layering
# ------------------------------------------------------------------

def pass_layering(model: Model, findings: list):
    for fi in model.files.values():
        parts = fi.path.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        layer = parts[1]
        allowed = LAYERS.get(layer)
        if allowed is None:
            f = Finding(
                pass_name="layering", rule="layering-unknown-dir",
                file=fi.path, line=0, symbol=layer,
                message=f"src/{layer} is not in the layering table; "
                        f"add it to LAYERS in fscache_analyze.py "
                        f"with its allowed dependencies")
            if not suppressed(model, f, findings):
                findings.append(f)
            continue
        for hdr, line in fi.includes:
            dep = hdr.split("/")[0]
            if "/" not in hdr:
                continue       # same-directory relative include
            if dep == layer or dep in allowed:
                continue
            if dep not in LAYERS:
                continue       # non-src include (gtest etc.)
            f = Finding(
                pass_name="layering", rule="layering-back-edge",
                file=fi.path, line=line, symbol=hdr,
                message=f"src/{layer} must not include src/{dep} "
                        f"(allowed: "
                        f"{', '.join(sorted(allowed)) or 'none'}); "
                        f"this is a back-edge in the subsystem DAG")
            if not suppressed(model, f, findings):
                findings.append(f)


# ------------------------------------------------------------------
# Pass 5: text rules
# ------------------------------------------------------------------

def block_at(text: str, brace: int) -> str:
    """text[brace] == '{'; the brace-balanced block it opens."""
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace:i + 1]
    return text[brace:]


def swallowed_catch_lines(joined: str):
    """Lines of `catch (...)` handlers whose block never mentions
    `throw`: it neither rethrows nor constructs a typed error, so the
    exception dies there."""
    for m in CATCH_ALL_RE.finditer(joined):
        brace = joined.find("{", m.end())
        if brace >= 0 and not THROW_RE.search(block_at(joined, brace)):
            yield joined.count("\n", 0, m.start()) + 1


def handler_unsafe_lines(joined: str):
    """(line, handler, hazard) for each non-async-signal-safe call in
    the body of a function this file installs as a signal handler.
    Helpers the handler calls are not followed."""
    handlers = set()
    for pat in (HANDLER_ASSIGN_RE, HANDLER_SIGNAL_RE):
        for m in pat.finditer(joined):
            name = m.group(1)
            if not name.startswith("SIG_") and name != "nullptr":
                handlers.add(name)
    for name in sorted(handlers):
        defn = re.compile(
            r"\b" + re.escape(name) + r"\s*\([^;{}()]*\)\s*\{")
        for m in defn.finditer(joined):
            brace = m.end() - 1
            start = joined.count("\n", 0, brace) + 1
            body = block_at(joined, brace)
            for off, line in enumerate(body.split("\n")):
                for upat, what in UNSAFE_IN_HANDLER:
                    if upat.search(line):
                        yield start + off, name, what


def float_names(model: Model, fi: FileInfo) -> set:
    """Names declared float/double in a file and, for a .cc, its
    sibling .hh."""
    sibling = model.files.get(fi.path[:-3] + ".hh") \
        if fi.path.endswith(".cc") else None
    names = set()
    for f in (fi, sibling):
        for _, code in (f.code if f is not None else ()):
            names.update(m.group(1) for m in FLOAT_DECL_RE.finditer(code))
    return names


def pass_text_rules(model: Model, findings: list):
    for fi in model.files.values():
        rel = fi.path

        def report(no, rule, symbol, msg):
            f = Finding(pass_name=rule, rule=rule, file=rel, line=no,
                        symbol=symbol, message=msg)
            if not suppressed(model, f, findings):
                findings.append(f)

        joined = "\n".join(code for _, code in fi.code)
        in_src = in_scope(rel, ("src",))
        if in_src:
            for no, name, what in handler_unsafe_lines(joined):
                report(no, "signal-handler-safety", name,
                       f"{what} inside a signal handler is not "
                       "async-signal-safe (a signal can arrive "
                       "mid-malloc/mid-lock); use write(2) and "
                       "preformatted buffers like "
                       "src/check/breadcrumb.cc, or _exit")
            if rel not in SWALLOW_ALLOWLIST:
                for no in swallowed_catch_lines(joined):
                    report(no, "swallowed-exception", "catch (...)",
                           "catch (...) that neither rethrows nor "
                           "produces a typed outcome swallows errors "
                           "(including StateCorruptionError); "
                           "rethrow, convert to a typed error, or "
                           "justify with an allow()")

        scoped_random = in_scope(rel, RANDOM_SCOPE)
        scoped_agg = in_scope(rel, AGGREGATION_SCOPE)
        scoped_hot = in_scope(rel, HOT_PATH_SCOPE)
        scoped_sto = in_scope(rel, STO_SCOPE)
        scoped_accum = in_scope(rel, ACCUM_SCOPE)
        accum_names = float_names(model, fi) if scoped_accum else set()
        policy = ("without a named policy; annotate with "
                  "// fs-analyze: float-accum(<policy>)")

        for no, code in fi.code:
            if code.lstrip().startswith("#"):
                continue  # includes/defines aren't uses
            if scoped_random:
                for pat, what in RAW_RANDOM_PATTERNS:
                    if pat.search(code):
                        report(no, "raw-random", what,
                               "randomness outside src/common's "
                               "seeded Rng breaks reproducibility")
                for pat, what in WALL_CLOCK_PATTERNS:
                    if pat.search(code):
                        report(no, "wall-clock", what,
                               "wall-clock read in simulation code "
                               "breaks run-to-run determinism")
            m = UNCHECKED_NET_RE.match(code) if in_src else None
            if m:
                report(no, "unchecked-net", m.group(1),
                       "socket call in statement position discards "
                       "its result; a vanished peer is only visible "
                       "there. Check it (see common/net.cc) or "
                       "justify fire-and-forget with an allow()")
            m = UNCHECKED_STO_RE.search(code) if scoped_sto else None
            if m:
                report(no, "unchecked-sto", m.group(),
                       "bare std::sto* accepts trailing junk and "
                       "throws on garbage; use the checked parsers in "
                       "common/arg_parser.hh (parseInt64Arg, "
                       "parseU64Arg, parseDoubleArg)")
            m = UNORDERED_TYPE_RE.search(code)
            if m and scoped_agg:
                report(no, "unordered-aggregation", m.group(),
                       "hash container in a result-aggregation path; "
                       "iteration order is unspecified. Use std::map, "
                       "a sorted vector, or an index-keyed vector")
            elif m and scoped_hot:
                report(no, "hot-path-container", m.group(),
                       "node-based hash container on the per-access "
                       "hot path; use common/flat_map.hh or an "
                       "index-keyed vector (pointer chase + "
                       "allocation per op)")
            if not scoped_accum:
                continue
            for m in COMPOUND_ADD_RE.finditer(code):
                if m.group(1) in accum_names:
                    report(no, "float-accum", m.group(1),
                           f"accumulation into float/double {policy}")
            for m in SELF_ASSIGN_ADD_RE.finditer(code):
                if m.group(1) in accum_names:
                    report(no, "float-accum", m.group(1),
                           f"accumulation into float/double (spelled "
                           f"x = x + ...) {policy}")
            m = ACCUMULATE_CALL_RE.search(code)
            if m:
                target = ACCUMULATE_TARGET_RE.match(code)
                if FLOAT_LITERAL_RE.search(code[m.end():]) or \
                        (target and target.group(1) in accum_names):
                    report(no, "float-accum", "std::accumulate",
                           "std::accumulate into float/double folds "
                           "with operator+ element by element "
                           f"{policy}, or use a compensated sum")


# ------------------------------------------------------------------
# Driver
# ------------------------------------------------------------------

PASSES = (pass_no_alloc, pass_determinism, pass_lock_discipline,
          pass_layering, pass_text_rules)


def build_model(root: Path) -> Model:
    return Frontend(root).build()


def run_passes(model: Model) -> list:
    findings = []
    for run in PASSES:
        run(model, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.symbol))
    return findings


# ------------------------------------------------------------------
# Fixture self-test
# ------------------------------------------------------------------

# Every finding the fixture tree must produce, as (file, line, rule,
# symbol). A rule that stops firing on its fixture, or a negative
# fixture (FS_COLD helper, allow()'d or policy-annotated site, decoy
# class) that starts firing, means the analyzer has rotted.
SELF_TEST_EXPECTED = {
    # no-alloc-on-hot-path: every allocation reachable from the
    # fixture's access(): new, vector growth, one through a virtual-
    # dispatch over-approximation, and one behind an `if (...)`
    # one-liner (the decoy ColdBatch::reserve must NOT appear).
    ("src/sim/hot_alloc.cc", 47, "hot-path-alloc",
     "fscache::HelperRanking::onHit"),
    ("src/sim/hot_alloc.cc", 60, "hot-path-alloc",
     "fscache::LfuishRanking::onHit"),
    ("src/sim/hot_alloc.cc", 103, "hot-path-alloc",
     "fscache::PartitionedCache::refill"),
    ("src/sim/hot_alloc.cc", 131, "hot-path-alloc",
     "fscache::PartitionedCache::accessMiss"),
    # determinism: alias-hidden local, auto range-for, member. The
    # alias line itself is the text rule's (direct spelling).
    ("src/sim/bad_unordered.cc", 26, "unordered-aggregation",
     "unordered_map"),
    ("src/sim/bad_unordered.cc", 32, "unordered-type",
     "fscache::Aggregator::report::scratch"),
    ("src/sim/bad_unordered.cc", 36, "unordered-iteration",
     "fscache::Aggregator::report"),
    ("src/sim/bad_unordered.cc", 45, "unordered-type",
     "fscache::Aggregator::byTenant_"),
    # lock-discipline: unguarded access, unannotated field, and an
    # exemption with no justification.
    ("src/runner/bad_lock.cc", 40, "lock-unguarded-access",
     "fscache::Pool::bump"),
    ("src/runner/bad_lock.cc", 65, "lock-unannotated",
     "fscache::Pool::unannotated_"),
    ("src/runner/bad_lock.cc", 70, "directive",
     "fscache::Pool::emptyWhy_"),
    # layering: stats including runner and sim.
    ("src/stats/bad_layering.cc", 12, "layering-back-edge",
     "runner/thread_pool.hh"),
    ("src/stats/bad_layering.cc", 13, "layering-back-edge",
     "sim/partitioned_cache.hh"),
    # text rules, one fixture file each.
    ("src/cache/bad_container.cc", 12, "hot-path-container",
     "unordered_map"),
    ("src/cache/bad_container.cc", 13, "hot-path-container",
     "unordered_set"),
    ("src/cache/bad_container.cc", 18, "hot-path-container",
     "unordered_map"),
    ("src/check/bad_handler.cc", 11, "signal-handler-safety",
     "badHandler"),
    ("src/check/bad_handler.cc", 12, "signal-handler-safety",
     "badHandler"),
    ("src/check/bad_handler.cc", 13, "signal-handler-safety",
     "badHandler"),
    ("src/check/bad_handler.cc", 14, "signal-handler-safety",
     "badHandler"),
    ("src/common/bad_net.cc", 9, "unchecked-net", "send"),
    ("src/common/bad_net.cc", 10, "unchecked-net", "recv"),
    ("src/common/bad_net.cc", 11, "unchecked-net", "connect"),
    ("src/common/bad_net.cc", 12, "unchecked-net", "accept"),
    ("src/ranking/bad_random.cc", 8, "raw-random", "std::rand/srand"),
    ("src/ranking/bad_random.cc", 12, "raw-random",
     "std::random_device"),
    ("src/ranking/bad_random.cc", 15, "raw-random", "std::mt19937"),
    ("src/runner/bad_catch.cc", 11, "swallowed-exception",
     "catch (...)"),
    ("src/sim/bad_clock.cc", 9, "wall-clock", "time()"),
    ("src/sim/bad_clock.cc", 12, "wall-clock", "std::chrono clock"),
    ("src/sim/bad_clock.cc", 18, "wall-clock", "time()"),
    ("src/sim/bad_clock.cc", 25, "directive", "time()"),
    ("src/stats/bad_accum.cc", 15, "float-accum", "sum_"),
    ("src/stats/bad_accum.cc", 23, "unordered-aggregation",
     "unordered_map"),
    ("src/stats/bad_accum.cc", 32, "float-accum", "acc"),
    ("src/stats/bad_accum.cc", 38, "float-accum", "acc"),
    ("src/stats/bad_accum.cc", 44, "float-accum", "std::accumulate"),
    ("tools/bad_sto.cc", 9, "unchecked-sto", "std::stoi"),
    ("tools/bad_sto.cc", 10, "unchecked-sto", "std::stod"),
}


def self_test(repo_root: Path) -> int:
    fixture_root = repo_root / FIXTURE_DIR
    if not fixture_root.is_dir():
        print(f"self-test: fixture dir missing: {fixture_root}",
              file=sys.stderr)
        return 2
    got = {(f.file, f.line, f.rule, f.symbol)
           for f in run_passes(build_model(fixture_root))}
    for miss in sorted(SELF_TEST_EXPECTED - got):
        print(f"self-test: expected finding not produced: {miss}",
              file=sys.stderr)
    for extra in sorted(got - SELF_TEST_EXPECTED):
        print(f"self-test: unexpected finding: {extra}",
              file=sys.stderr)
    if got != SELF_TEST_EXPECTED:
        return 2
    print(f"self-test: ok ({len(got)} expected findings; negative "
          f"fixtures and suppressed sites stayed quiet)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="fscache static analysis (see module docstring)")
    ap.add_argument("--json", type=Path, default=None,
                    help="also write the findings as JSON")
    ap.add_argument("--self-test", action="store_true",
                    help=f"run the analyzer against {FIXTURE_DIR} "
                         "and verify the expected findings fire")
    args = ap.parse_args(argv)
    repo_root = Path(__file__).resolve().parent.parent

    try:
        if args.self_test:
            return self_test(repo_root)
        findings = run_passes(build_model(repo_root))
    except AnalyzerError as e:
        print(f"fscache_analyze: error: {e}", file=sys.stderr)
        return 2
    if args.json:
        args.json.write_text(json.dumps(
            {"findings": [f.to_json() for f in findings]},
            indent=2) + "\n", encoding="utf-8")
    for f in findings:
        print(f.render())
    if findings:
        print(f"fscache_analyze: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("fscache_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
