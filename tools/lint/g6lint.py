#!/usr/bin/env python3
"""g6lint — repo-specific invariants that clang-tidy cannot express.

The GRAPE-6 software twin has correctness properties that hinge on
*where* arithmetic happens, not just how:

  raw-float       Hardware-dataflow internals (src/grape/{pipeline,chip,
                  board}.*, src/hw/*) must route floating-point arithmetic
                  through the g6 emulation types (FloatFormat ops,
                  FixedPointCodec encode/decode, BlockFloatAccumulator
                  add/merge). A bare `a * b` on doubles in those files is a
                  piece of the pipeline silently computed in IEEE double —
                  exactly the bug that would invalidate the paper's
                  bit-exact reduced-precision claims while passing every
                  accuracy test at N small.

  native-float    The native `float` type is banned in src/grape, src/hw
                  and src/util. Narrow formats are modelled by FloatFormat
                  (explicit fraction bits / exponent range); native float
                  has the wrong rounding envelope and double-promotion
                  hazards.

  nondeterminism  rand()/srand()/time()/clock()/std::random_device/
                  std::mt19937/system_clock/high_resolution_clock are
                  banned everywhere in src/. Reproducibility underpins the
                  BFP order-invariance ablation ("same result on machines
                  of different sizes"); all randomness must come from
                  g6::Rng (seeded xoshiro256++) and all timing from
                  steady_clock.

  raw-timing      Reading the clock directly (std::chrono, clock_gettime,
                  gettimeofday) is banned in src/ outside src/obs/. All
                  wall-time measurement goes through
                  g6::obs::monotonic_seconds() (src/obs/clock.hpp) so the
                  phase spans, Eq 10 accounting and ad-hoc timers share one
                  clock and one place to fake it in tests.

  raw-thread      std::thread / std::jthread / std::async / std::this_thread
                  are banned in src/ outside src/exec/. All parallelism goes
                  through the shared work-stealing pool (g6::exec::ThreadPool,
                  TaskGroup, parallel_for) so thread count is one knob
                  (--threads / G6_EXEC_THREADS), the serial fallback stays
                  bit-identical, and the determinism contract of
                  docs/EXECUTION.md has one enforcement point.

  raw-socket      Socket primitives — the BSD socket headers
                  (<sys/socket.h>, <sys/un.h>, <netinet/*.h>,
                  <arpa/inet.h>, <poll.h>) and the ::-qualified syscalls
                  (::socket, ::bind, ::connect, ::send, ::recv, ::poll,
                  ...) — are confined to src/wire/. Everything else talks
                  through the wire layer's RAII wrappers (wire/socket.hpp)
                  or, better, WireServer / RemoteClient, so framing,
                  EINTR handling and non-blocking discipline live in one
                  audited place and the serve-isolation backpressure
                  contract cannot be bypassed with a hand-rolled socket.
                  tests/ are exempt (they probe the wrappers white-box).

  require-at-api  Public API translation units must validate their inputs:
                  each .cpp under src/ needs at least one G6_REQUIRE /
                  G6_REQUIRE_MSG, unless exempted below with a reason.

  nolint-comment  A clang-tidy `NOLINT*` marker must carry a rationale in
                  a comment on the same or the preceding line. Bare
                  suppressions rot.

  bare-abort      abort()/exit()/quick_exit()/_Exit() are banned in src/
                  outside src/util/check.hpp. Failures surface as typed
                  exceptions (src/util/errors.hpp: TransientFault /
                  RetryExhausted / HardFault) or G6_REQUIRE precondition
                  throws, so the integrator can retry transients and
                  degrade gracefully instead of losing the whole run.

  serve-isolation The serving layer's scheduling internals (JobQueue,
                  Scheduler, BoardPartitioner, AdmissionController,
                  JobRuntime) are private to src/serve/. Code anywhere
                  else — src/, tools/, bench/, examples/ — must not
                  include their headers or name their types; clients go
                  through serve/serve.hpp (GrapeService / ServeClient).
                  The boundary is what keeps admission and fair-share
                  accounting enforceable: a driver that pokes the queue
                  directly bypasses backpressure (docs/SERVING.md).
                  tests/ are exempt (white-box tests exercise internals).

  unordered-iter  std::unordered_map / std::unordered_set (and multi
                  variants) are banned in src/, tools/ and bench/.
                  Unordered iteration order varies run to run and across
                  standard libraries; anything it feeds — JSON exports,
                  accumulation, scheduling decisions — silently breaks
                  the bit-identical contract. Use std::map / sorted
                  vectors / index loops, or suppress with a rationale
                  proving iteration order never escapes.

  volatile-sync   `volatile` is banned in src/. It is not a
                  synchronization primitive (no atomicity, no ordering);
                  cross-thread state goes through std::atomic or a
                  g6::Mutex-guarded section so TSan and -Wthread-safety
                  can see it.

  durable-writes  Bare `std::ofstream` persistence is banned in src/ and
                  tools/ outside src/util/fileio.cpp. Every durable
                  artifact (snapshots, reports, checkpoints, journals,
                  exports) goes through util/fileio.hpp —
                  write_file_atomic / write_file_atomic_durable /
                  AppendLog — so a crash (including the kill -9 the
                  recovery suite injects) can never leave a truncated or
                  half-written file for a reader to trip over. An
                  ofstream that genuinely never persists state (e.g. a
                  stream member wired to /dev/null) carries an inline
                  rationale.

  soa-access      Bulk j-particle storage is structure-of-arrays
                  (g6::JStore, src/hw/jstore.hpp): containers of
                  StoredJParticle (std::vector/std::span/std::array of the
                  AoS word) are confined to src/hw/, src/grape/ and
                  src/fault/ — the layers that own the memory image, its
                  upload path and its fault/scrub machinery. Anywhere else
                  an AoS container reintroduces the strided layout the
                  batched pipeline was built to eliminate and silently
                  bypasses the JStore word accessors the fault tooling
                  relies on. Single StoredJParticle values (one quantized
                  word in flight) are fine.

  metric-name     Instrument and span names passed to .counter("...") /
                  .gauge("...") / .histogram("...") / G6_PHASE("...") /
                  PhaseSpan("...") must be dot-separated lowercase
                  `subsystem.name` paths: two or more segments of
                  [a-z0-9_] (later segments may also use '-', e.g.
                  hermite.j-send). The names are load-bearing — g6report
                  groups by prefix, export_determinism_check and the
                  per-job attribution scopes key on them, and docs/
                  OBSERVABILITY.md documents the namespaces — so a
                  one-off "Predict" or "force_time" silently falls out
                  of every downstream view. Only single string-literal
                  arguments are checked; dynamically built names
                  ("fault.detected." + kind) are the caller's problem.

Baseline (grandfathering): tools/lint/g6lint_baseline.json holds
per-(file, rule) finding counts that are tolerated — the escape hatch
for introducing a new rule to an old tree without a flag day. Findings
beyond the baselined count still fail; a stale baseline (fewer findings
than recorded) prints a nudge to re-run with --update-baseline so the
ratchet only ever tightens. The shipped baseline is empty: the tree is
clean, and new code stays clean or carries an inline rationale.

Suppressions (the tool polices its own escape hatch — a suppression
without a reason is itself a finding):

    some_code();  // g6lint: allow(raw-float) -- why this is fine
    // g6lint: allow-next-line(raw-float) -- why this is fine
    // g6lint: begin-allow(raw-float) -- why this whole block is fine
    ...
    // g6lint: end-allow(raw-float)

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Configuration (repo-specific by design; edit alongside the code it guards)
# --------------------------------------------------------------------------

# Files forming the emulated hardware dataflow: predictor + force pipeline,
# number-format conversion, chip and board reduction trees.
RAW_FLOAT_SCOPE = (
    "src/grape/pipeline.hpp",
    "src/grape/pipeline.cpp",
    "src/hw/formats.hpp",
    "src/hw/formats.cpp",
    "src/hw/accumulators.hpp",
    "src/hw/jstore.hpp",
    "src/grape/chip.hpp",
    "src/grape/chip.cpp",
    "src/grape/board.hpp",
    "src/grape/board.cpp",
)

NATIVE_FLOAT_SCOPE_PREFIXES = ("src/grape/", "src/hw/", "src/util/")

# Calls that mark a line as routed through the g6 arithmetic types.
ROUTING_TOKENS = (
    ".quantize(",
    ".add(",
    ".sub(",
    ".mul(",
    ".div(",
    ".sqrt(",
    ".rsqrt(",
    ".encode(",
    ".decode(",
    ".merge(",
    ".reset(",
    ".value(",
    "choose_block_exponent(",
)

# Lines that declare/operate on integer words are exact by construction
# (the fixed-point and cycle-count arithmetic).
INTEGER_TYPE_RE = re.compile(
    r"\b(?:std::)?u?int(?:8|16|32|64)_t\b|\bstd::size_t\b|\bsize_t\b"
    r"|\bunsigned\b|\bbool\b|\buint\b"
)

# Infix binary arithmetic between operands. .clang-format spaces binary
# operators and glues pointer/reference declarators to the type, so a
# space *before* '*' reliably separates `a * b` from `T* p`. Spaced '+'
# and '-' additionally require floating-point evidence on the line (an FP
# literal or a `double`), since integer index/cycle arithmetic is exact
# and allowed.
MULDIV_RE = re.compile(r"[\w\)\]] [*/] [-+]?[\w\(]")
ADDSUB_RE = re.compile(r"[\w\)\]] [+\-] [-+]?[\w\(]")
FP_EVIDENCE_RE = re.compile(r"\b\d+\.\d|\bdouble\b|\b\d+\.\d*[eE][-+]?\d|0x1\.")

NONDETERMINISM_RES = (
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    # Only the libc/std wall-clock readers: member accessors named time()
    # are fine, `time(NULL)` / `std::time(...)` are not.
    (re.compile(r"\bstd::time\s*\(|(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"\bstd::clock\s*\(|(?<![\w:.>])::clock\s*\("), "clock()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
)

# Translation units exempt from require-at-api, each with the reason the
# exemption is sound. An entry without a reason is a config error.
REQUIRE_EXEMPT = {
    "src/grape/pipeline.cpp": "per-interaction hot path; preconditions are "
    "enforced once per pass by Chip::run_pass/Board::run_pass",
    "src/util/vec3.cpp": "stream output operator only; no inputs to validate",
    "src/util/softfloat.cpp": "describe() formatting and the cold "
    "quantize_ref() exit, total over all doubles; arithmetic preconditions "
    "live in the header (G6_REQUIRE in rsqrt)",
    "src/util/cli.cpp": "parses end-user argv; reports errors via "
    "runtime_error + finish(), not programmer preconditions",
}

REQUIRE_RE = re.compile(r"\bG6_REQUIRE(?:_MSG)?\s*\(")

NOLINT_RE = re.compile(r"\bNOLINT(?:NEXTLINE|BEGIN|END)?\b")

ALLOW_RE = re.compile(
    r"g6lint:\s*(allow|allow-next-line|begin-allow|end-allow)"
    r"\(([a-z\-]+)\)\s*(?:--\s*(.*))?"
)

# The one place in src/ allowed to read the clock.
RAW_TIMING_EXEMPT_PREFIX = "src/obs/"

RAW_TIMING_RE = re.compile(
    r"\bstd::chrono\b|\bchrono::\w|\bclock_gettime\s*\(|\bgettimeofday\s*\(")

# Process-killing calls; the one legitimate site is the check machinery
# itself (src/util/check.hpp), should it ever need a hard stop.
BARE_ABORT_RE = re.compile(
    r"(?<![\w.:>])(?:std::)?(?:abort|quick_exit|_Exit|exit)\s*\(")
BARE_ABORT_EXEMPT = ("src/util/check.hpp",)

# The one place in src/ allowed to spawn threads.
RAW_THREAD_EXEMPT_PREFIX = "src/exec/"

RAW_THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread|async|this_thread)\b")

# The one layer allowed to touch raw socket primitives.
RAW_SOCKET_EXEMPT_PREFIX = "src/wire/"
RAW_SOCKET_SCOPE_PREFIXES = ("src/", "tools/", "bench/", "examples/")
RAW_SOCKET_HEADERS = (
    "sys/socket.h",
    "sys/un.h",
    "netinet/in.h",
    "netinet/tcp.h",
    "arpa/inet.h",
    "poll.h",
)
# ::-qualified only: the repo's convention for libc syscalls, and what
# keeps `send(...)` methods on our own classes out of scope.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.])::(?:socket|bind|listen|accept4?|connect|send(?:to|msg)?|"
    r"recv(?:from|msg)?|poll|select|epoll_\w+|setsockopt|getsockopt|"
    r"getsockname|getpeername|inet_pton|inet_ntop|getaddrinfo|shutdown)"
    r"\s*\(")

# The serving layer's internal headers and types: private to src/serve/.
# Clients (anything else in src/, plus tools/bench/examples) use the
# public surface — serve/serve.hpp, serve/types.hpp, serve/service.hpp,
# serve/manifest.hpp — and talk through GrapeService / ServeClient.
SERVE_INTERNAL_HEADERS = (
    "serve/job_queue.hpp",
    "serve/scheduler.hpp",
    "serve/partition.hpp",
    "serve/admission.hpp",
    "serve/job.hpp",
    "serve/journal.hpp",
)
SERVE_INTERNAL_RE = re.compile(
    r"\bserve::(?:JobQueue|Scheduler|BoardPartitioner|AdmissionController|"
    r"JobRuntime|SavedJob|AdmissionDecision|BoardLease|Journal|"
    r"JournalRecord|JournalReplay)\b")
SERVE_ISOLATION_SCOPE_PREFIXES = ("src/", "tools/", "bench/", "examples/")

# AoS containers of the j-memory word: allowed only in the layers that
# own the memory image (JStore itself, chip/engine upload, fault/scrub).
SOA_ACCESS_RE = re.compile(
    r"\bstd::(?:vector|span|array)\s*<\s*(?:const\s+)?StoredJParticle\b")
SOA_ACCESS_SCOPE_PREFIXES = ("src/", "tools/", "bench/", "examples/")
SOA_ACCESS_EXEMPT_PREFIXES = ("src/hw/", "src/grape/", "src/fault/")

UNORDERED_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_SCOPE_PREFIXES = ("src/", "tools/", "bench/")

VOLATILE_RE = re.compile(r"\bvolatile\b")

# Durable artifacts go through util/fileio.hpp (atomic rename + fsync
# grades + AppendLog); a bare ofstream is a torn-write hazard. The one
# legitimate site is the implementation of those primitives itself.
DURABLE_WRITES_RE = re.compile(r"\bstd::ofstream\b")
DURABLE_WRITES_SCOPE_PREFIXES = ("src/", "tools/")
DURABLE_WRITES_EXEMPT = ("src/util/fileio.cpp",)

# Registration/span calls whose first argument names an instrument. The
# trailing group distinguishes a complete single-literal argument (next
# token is ',' or ')') from a concatenation fragment, which is skipped.
METRIC_CALL_RE = re.compile(
    r'(?:\.(?:counter|gauge|histogram)|\bG6_PHASE|\bPhaseSpan(?:\s+\w+)?)'
    r'\s*\(\s*"([^"]*)"\s*([,)])?')
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_-]+)+$")
METRIC_NAME_SCOPE_PREFIXES = ("src/", "tools/", "bench/", "examples/")

RULES = ("raw-float", "native-float", "nondeterminism", "raw-timing",
         "raw-thread", "raw-socket", "require-at-api", "nolint-comment",
         "bare-abort", "serve-isolation", "unordered-iter", "volatile-sync",
         "metric-name", "durable-writes", "soa-access")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(line: str) -> str:
    """Remove string/char literals and comments; keep structure."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append('""' if quote == '"' else "''")
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        elif c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments(line: str) -> str:
    """Remove comments but KEEP string-literal contents (strip_code blanks
    them, which would erase the very names metric-name inspects)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and line[i] != quote:
                step = 2 if line[i] == "\\" and i + 1 < n else 1
                out.append(line[i:i + step])
                i += step
            if i < n:
                out.append(quote)
                i += 1
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        elif c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def comment_part(line: str) -> str:
    idx = line.find("//")
    return line[idx:] if idx != -1 else ""


class Suppressions:
    """Per-file suppression state parsed from g6lint: comments."""

    def __init__(self, relpath: str, lines: list[str], findings: list[Finding]):
        self.line_allows: dict[int, set[str]] = {}
        open_blocks: dict[str, int] = {}
        blocks: list[tuple[str, int, int]] = []
        for lineno, raw in enumerate(lines, start=1):
            m = ALLOW_RE.search(comment_part(raw))
            if not m:
                continue
            kind, rule, reason = m.group(1), m.group(2), m.group(3)
            if rule not in RULES:
                findings.append(Finding(relpath, lineno, "suppression",
                                        f"unknown rule '{rule}' in suppression"))
                continue
            if kind != "end-allow" and not (reason and reason.strip()):
                findings.append(Finding(
                    relpath, lineno, "suppression",
                    f"suppression of '{rule}' without a reason "
                    "(write: g6lint: allow(rule) -- why)"))
                continue
            if kind == "allow":
                self.line_allows.setdefault(lineno, set()).add(rule)
            elif kind == "allow-next-line":
                self.line_allows.setdefault(lineno + 1, set()).add(rule)
            elif kind == "begin-allow":
                open_blocks[rule] = lineno
            elif kind == "end-allow":
                if rule in open_blocks:
                    blocks.append((rule, open_blocks.pop(rule), lineno))
                else:
                    findings.append(Finding(relpath, lineno, "suppression",
                                            f"end-allow({rule}) without begin-allow"))
        for rule, start in open_blocks.items():
            findings.append(Finding(relpath, start, "suppression",
                                    f"begin-allow({rule}) never closed"))
        self.blocks = blocks

    def allowed(self, rule: str, lineno: int) -> bool:
        if rule in self.line_allows.get(lineno, set()):
            return True
        return any(r == rule and a <= lineno <= b for r, a, b in self.blocks)


def lint_file(root: pathlib.Path, relpath: str, findings: list[Finding]) -> None:
    text = (root / relpath).read_text(encoding="utf-8")
    lines = text.split("\n")
    sup = Suppressions(relpath, lines, findings)
    code_lines = [strip_code(l) for l in lines]

    in_raw_float_scope = relpath in RAW_FLOAT_SCOPE
    in_native_float_scope = relpath.startswith(NATIVE_FLOAT_SCOPE_PREFIXES)
    in_src = relpath.startswith("src/")
    in_serve_isolation_scope = (
        relpath.startswith(SERVE_ISOLATION_SCOPE_PREFIXES)
        and not relpath.startswith("src/serve/"))
    in_metric_name_scope = relpath.startswith(METRIC_NAME_SCOPE_PREFIXES)
    in_raw_socket_scope = (
        relpath.startswith(RAW_SOCKET_SCOPE_PREFIXES)
        and not relpath.startswith(RAW_SOCKET_EXEMPT_PREFIX))

    # raw-socket, include half: the socket headers are preprocessor lines,
    # which the main loop skips.
    if in_raw_socket_scope:
        for lineno, code in enumerate(code_lines, start=1):
            stripped = code.lstrip()
            if not stripped.startswith("#") or "include" not in stripped:
                continue
            raw = lines[lineno - 1]
            for hdr in RAW_SOCKET_HEADERS:
                if (f'"{hdr}"' in raw or f"<{hdr}>" in raw) \
                        and not sup.allowed("raw-socket", lineno):
                    findings.append(Finding(
                        relpath, lineno, "raw-socket",
                        f"socket header <{hdr}> outside src/wire/ — use the "
                        "wire layer's transport (wire/socket.hpp Socket/"
                        "ListenSocket) or WireServer / RemoteClient"))

    # serve-isolation, include half: preprocessor lines are skipped by the
    # main loop below, so internal-header includes get their own pass.
    if in_serve_isolation_scope:
        for lineno, code in enumerate(code_lines, start=1):
            stripped = code.lstrip()
            if not stripped.startswith("#") or "include" not in stripped:
                continue
            raw = lines[lineno - 1]  # includes live in the raw line's quotes
            for hdr in SERVE_INTERNAL_HEADERS:
                if (f'"{hdr}"' in raw or f"<{hdr}>" in raw) \
                        and not sup.allowed("serve-isolation", lineno):
                    findings.append(Finding(
                        relpath, lineno, "serve-isolation",
                        f"include of serving-layer internal header {hdr} "
                        "outside src/serve/ — include serve/serve.hpp and "
                        "go through GrapeService / ServeClient"))

    for lineno, code in enumerate(code_lines, start=1):
        if not code.strip() or code.lstrip().startswith("#"):
            continue

        if (in_serve_isolation_scope and SERVE_INTERNAL_RE.search(code)
                and not sup.allowed("serve-isolation", lineno)):
            findings.append(Finding(
                relpath, lineno, "serve-isolation",
                "use of a serving-layer internal type outside src/serve/ — "
                "JobQueue/Scheduler/BoardPartitioner/AdmissionController/"
                "JobRuntime are private; clients submit through "
                "ServeClient (serve/serve.hpp)"))

        if in_native_float_scope and re.search(r"\bfloat\b", code):
            if not sup.allowed("native-float", lineno):
                findings.append(Finding(
                    relpath, lineno, "native-float",
                    "native `float` is banned here; model narrow formats "
                    "with g6::FloatFormat"))

        arith = MULDIV_RE.search(code) or (
            ADDSUB_RE.search(code) and FP_EVIDENCE_RE.search(code))
        if in_raw_float_scope and arith:
            routed = any(tok in code for tok in ROUTING_TOKENS)
            integer = INTEGER_TYPE_RE.search(code) is not None
            if not routed and not integer and not sup.allowed("raw-float", lineno):
                findings.append(Finding(
                    relpath, lineno, "raw-float",
                    "floating-point arithmetic outside the g6 emulation "
                    "types in hardware-dataflow code; route through "
                    "FloatFormat / FixedPointCodec / BlockFloatAccumulator"))

        if in_src:
            for rx, name in NONDETERMINISM_RES:
                if rx.search(code) and not sup.allowed("nondeterminism", lineno):
                    findings.append(Finding(
                        relpath, lineno, "nondeterminism",
                        f"{name} is banned in src/ — use g6::Rng for "
                        "randomness and g6::obs::monotonic_seconds() for "
                        "timing"))

        if (in_src and relpath not in BARE_ABORT_EXEMPT
                and BARE_ABORT_RE.search(code)
                and not sup.allowed("bare-abort", lineno)):
            findings.append(Finding(
                relpath, lineno, "bare-abort",
                "process-killing call in src/ — throw a typed error from "
                "src/util/errors.hpp (TransientFault/HardFault) or use "
                "G6_REQUIRE so callers can retry or degrade gracefully"))

        if (in_src and not relpath.startswith(RAW_THREAD_EXEMPT_PREFIX)
                and RAW_THREAD_RE.search(code)
                and not sup.allowed("raw-thread", lineno)):
            findings.append(Finding(
                relpath, lineno, "raw-thread",
                "raw thread primitive outside src/exec/ — run work on the "
                "shared pool via g6::exec::TaskGroup / parallel_for "
                "(src/exec/thread_pool.hpp) so thread count stays one knob "
                "and the determinism contract holds"))

        if (in_raw_socket_scope and RAW_SOCKET_RE.search(code)
                and not sup.allowed("raw-socket", lineno)):
            findings.append(Finding(
                relpath, lineno, "raw-socket",
                "raw socket syscall outside src/wire/ — go through the "
                "wire layer (wire/socket.hpp, or WireServer / "
                "RemoteClient) so framing, EINTR and non-blocking "
                "discipline stay in one audited place"))

        if (relpath.startswith(SOA_ACCESS_SCOPE_PREFIXES)
                and not relpath.startswith(SOA_ACCESS_EXEMPT_PREFIXES)
                and SOA_ACCESS_RE.search(code)
                and not sup.allowed("soa-access", lineno)):
            findings.append(Finding(
                relpath, lineno, "soa-access",
                "AoS container of StoredJParticle outside src/hw|grape|"
                "fault — bulk j-particle storage is structure-of-arrays; "
                "hold a g6::JStore (hw/jstore.hpp) and go through its "
                "word accessors / column spans"))

        if (relpath.startswith(UNORDERED_SCOPE_PREFIXES)
                and UNORDERED_RE.search(code)
                and not sup.allowed("unordered-iter", lineno)):
            findings.append(Finding(
                relpath, lineno, "unordered-iter",
                "unordered container: its iteration order is "
                "run-to-run nondeterministic and poisons anything it "
                "feeds (exports, accumulation, scheduling) — use "
                "std::map / a sorted vector / index iteration, or "
                "suppress with a rationale proving the order never "
                "escapes"))

        if (relpath.startswith(DURABLE_WRITES_SCOPE_PREFIXES)
                and relpath not in DURABLE_WRITES_EXEMPT
                and DURABLE_WRITES_RE.search(code)
                and not sup.allowed("durable-writes", lineno)):
            findings.append(Finding(
                relpath, lineno, "durable-writes",
                "bare std::ofstream persistence — write through "
                "util/fileio.hpp (write_file_atomic for re-creatable "
                "exports, write_file_atomic_durable for recovery-critical "
                "state, AppendLog for journals) so a crash can never "
                "leave a torn file"))

        if (in_src and VOLATILE_RE.search(code)
                and not sup.allowed("volatile-sync", lineno)):
            findings.append(Finding(
                relpath, lineno, "volatile-sync",
                "volatile is not a synchronization primitive — use "
                "std::atomic for lock-free flags or guard the state "
                "with g6::Mutex (util/mutex.hpp) so TSan and "
                "-Wthread-safety can check it"))

        if in_metric_name_scope:
            # Needs the raw literal, so runs on a comment-stripped (not
            # string-blanked) view of the line.
            for m in METRIC_CALL_RE.finditer(strip_comments(lines[lineno - 1])):
                if m.group(2) is None:
                    continue  # "prefix." + kind — a fragment, not a name
                name = m.group(1)
                if not METRIC_NAME_RE.match(name) \
                        and not sup.allowed("metric-name", lineno):
                    findings.append(Finding(
                        relpath, lineno, "metric-name",
                        f"instrument/span name '{name}' must be a "
                        "dot-separated lowercase path like "
                        "'subsystem.name' (segments [a-z0-9_], '-' "
                        "allowed after the first dot) so g6report "
                        "grouping, per-job scopes and determinism "
                        "checks can key on it"))

        if (in_src and not relpath.startswith(RAW_TIMING_EXEMPT_PREFIX)
                and RAW_TIMING_RE.search(code)
                and not sup.allowed("raw-timing", lineno)):
            findings.append(Finding(
                relpath, lineno, "raw-timing",
                "raw clock access outside src/obs/ — time through "
                "g6::obs::monotonic_seconds() (src/obs/clock.hpp) so all "
                "instrumentation shares the telemetry clock"))

    # require-at-api: per-file presence check.
    if (in_src and relpath.endswith(".cpp") and relpath not in REQUIRE_EXEMPT
            and not REQUIRE_RE.search(text)):
        findings.append(Finding(
            relpath, 1, "require-at-api",
            "public API translation unit has no G6_REQUIRE precondition "
            "check; validate inputs at the API boundary (or exempt the "
            "file in g6lint.py with a reason)"))

    # nolint-comment: every NOLINT needs a rationale nearby.
    for lineno, raw in enumerate(lines, start=1):
        if NOLINT_RE.search(comment_part(raw)):
            here = comment_part(raw)
            prev = comment_part(lines[lineno - 2]) if lineno >= 2 else ""
            # A rationale = comment text beyond the bare marker itself.
            rationale = re.sub(r"\bNOLINT(?:NEXTLINE|BEGIN|END)?\b(\([^)]*\))?",
                               "", here + " " + prev)
            rationale = rationale.replace("//", " ").strip(" -:\t")
            if len(rationale) < 10 and not sup.allowed("nolint-comment", lineno):
                findings.append(Finding(
                    relpath, lineno, "nolint-comment",
                    "NOLINT without a rationale comment on the same or "
                    "preceding line"))


def collect_targets(root: pathlib.Path) -> list[str]:
    # src/ carries every rule; tools/, bench/ and examples/ are scanned
    # for the cross-cutting boundary rules (serve-isolation,
    # nolint-comment) — the src-scoped rules gate themselves by prefix.
    targets = []
    for sub in ("src", "tools", "bench", "examples"):
        if not (root / sub).is_dir():
            continue
        for p in sorted((root / sub).rglob("*")):
            if p.suffix in (".hpp", ".cpp") and p.is_file():
                targets.append(str(p.relative_to(root)))
    return targets


DEFAULT_BASELINE = "tools/lint/g6lint_baseline.json"


def load_baseline(path: pathlib.Path) -> dict[str, int]:
    """{"path/to/file.cpp:rule": count} of tolerated findings."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v > 0
            for k, v in data.items()):
        raise ValueError(
            "baseline must map 'path:rule' strings to positive counts")
    return data


def apply_baseline(findings: list[Finding],
                   baseline: dict[str, int]) -> tuple[list[Finding],
                                                      dict[str, int]]:
    """Suppress up to baseline[path:rule] findings per key; the rest stay.

    Returns (kept findings, stale keys -> unused slack). Stale slack means
    the tree got cleaner than the baseline records — the ratchet should be
    re-tightened with --update-baseline.
    """
    budget = dict(baseline)
    kept = []
    for f in findings:
        key = f"{f.path}:{f.rule}"
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            kept.append(f)
    stale = {k: v for k, v in budget.items() if v > 0}
    return kept, stale


def write_baseline(path: pathlib.Path, findings: list[Finding]) -> None:
    counts: dict[str, int] = {}
    for f in findings:
        key = f"{f.path}:{f.rule}"
        counts[key] = counts.get(key, 0) + 1
    path.write_text(
        json.dumps(dict(sorted(counts.items())), indent=2) + "\n",
        encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--baseline", default=None,
                    help=f"baseline file (default: {DEFAULT_BASELINE} "
                         "under --root; pass an empty string to disable)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from the current findings "
                         "and exit 0")
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: all of src/)")
    args = ap.parse_args()

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"g6lint: {root} does not look like the repo root", file=sys.stderr)
        return 2

    for relpath, reason in REQUIRE_EXEMPT.items():
        if not reason.strip():
            print(f"g6lint: exemption for {relpath} lacks a reason", file=sys.stderr)
            return 2

    targets = args.paths or collect_targets(root)
    findings: list[Finding] = []
    for rel in targets:
        rp = pathlib.Path(rel)
        if rp.is_absolute():
            try:
                rel = str(rp.relative_to(root))
            except ValueError:
                print(f"g6lint: {rp} is outside the repo root {root}",
                      file=sys.stderr)
                return 2
        if not (root / rel).is_file():
            print(f"g6lint: no such file: {rel}", file=sys.stderr)
            return 2
        lint_file(root, rel, findings)

    if args.baseline == "":
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = pathlib.Path(args.baseline)
    else:
        baseline_path = root / DEFAULT_BASELINE

    if args.update_baseline:
        if baseline_path is None:
            print("g6lint: --update-baseline needs a baseline path",
                  file=sys.stderr)
            return 2
        write_baseline(baseline_path, findings)
        print(f"g6lint: baseline updated ({len(findings)} finding(s) "
              f"grandfathered in {baseline_path})", file=sys.stderr)
        return 0

    stale: dict[str, int] = {}
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, json.JSONDecodeError) as e:
            print(f"g6lint: bad baseline {baseline_path}: {e}",
                  file=sys.stderr)
            return 2
        # Only meaningful against a full scan: a partial file list would
        # consume baseline slots it never checked and mask real findings.
        if not args.paths:
            findings, stale = apply_baseline(findings, baseline)

    for f in findings:
        print(f)
    for key, slack in sorted(stale.items()):
        print(f"g6lint: baseline for {key} has {slack} unused slot(s) — "
              "tighten the ratchet with --update-baseline", file=sys.stderr)
    if findings:
        print(f"g6lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"g6lint: clean ({len(targets)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
