#!/usr/bin/env python3
"""dpc_lint — protocol linter for the DPC tree.

Checks invariants that neither the compiler nor clang-tidy can see because
they are conventions of this codebase, not of C++:

  raw-mutex         std::mutex / std::shared_mutex declared outside the
                    annotated wrappers (sim/thread_annotations.hpp). Raw
                    mutexes bypass both the Clang thread-safety annotations
                    and the runtime lock-rank detector.
  raw-guard         std::lock_guard / std::unique_lock / std::shared_lock /
                    std::scoped_lock outside the wrapper header. The sim::
                    guards carry the SCOPED_CAPABILITY annotations; the std
                    ones are invisible to the analysis.
  doorbell-fence    a doorbell MMIO (`->doorbell(`) with no preceding
                    publish in the lookback window — a plain or release
                    store / DMA write of the descriptor the doorbell
                    advertises. Producer-side doorbells that follow this
                    protocol are readable at a glance; consumer-side ones
                    (CQ head updates) must say so with a suppression.
  sqe-encode        writes to SQE fields outside the encode_*/decode_*
                    helpers in nvme/spec.cpp. All wire-format knowledge
                    lives in one file.
  hot-path-lookup   registry name-lookups fused with a record/add call
                    (`registry.histogram("x").record(...)`): each lookup
                    takes the registry's shared lock and hashes the name.
                    Hot paths must cache the instrument pointer at
                    construction. Recovery-only paths may suppress.
  wall-clock        std::chrono::system_clock / high_resolution_clock
                    anywhere (the simulation is Date-free; modelled time is
                    sim::Nanos), and steady_clock inside src/sim/ itself —
                    the time model must not read real clocks.
  checksum-stamp    inside the checksummed stores (ssd/ssd.cpp,
                    kv/kv_store.cpp, dfs/backend.cpp): a memcpy whose
                    *destination* is a stored object's payload (`….data`)
                    with no CRC restamp (`stamp_*_crc` / `.crc =`) within a
                    few lines. Mutating stored bytes without restamping
                    makes the integrity envelope read the write back as
                    bit-rot — every payload mutation goes through the stamp
                    helper.
  lockfree-mutex    a mutex acquisition (sim:: or std:: guard, or a bare
                    .lock()/lock_bucket() call) inside a region marked
                    `// dpc-lint: lockfree-begin(<tag>)` ...
                    `// dpc-lint: lockfree-end(<tag>)`. Those regions are
                    the converted seqlock read paths; reintroducing a lock
                    there silently reverts the optimization and can invert
                    lock ordering relative to the locked fallback below the
                    region.
  fixed-deadline    inside src/dfs/ and src/kv/: a fixed calib timeout
                    constant (kKvOpTimeout / kNvmeCommandTimeout). The
                    health-scored backends cut retries at
                    HealthBoard::deadline(); the no-board fallback keeps
                    the constant under an explicit suppression.
  kvfs-commit       inside src/kvfs/: a single-key RemoteKv mutation
                    (`store_->put(`, `->write_sub(`, `->erase(`). Every
                    KVFS mutation is one guarded kv::Batch sent through
                    Kvfs::commit (or the mount's guarded root install), so
                    it lands whole or not at all between its crash points;
                    a bare put beside a batch can tear from it.

Invariants with a mechanism that executes elsewhere are not duplicated
here (DESIGN.md §5.11 "Enforcement"): the lock-rank detector rejects a
low-ranked lock held at an NVMe completion wait, `IniDriver::Request`
cannot be built without a tenant, and dpc_check's wal_append scenario
catches a WAL commit word published before its payload fence.

Meta rule:

  stale-suppression a `// dpc-lint: ok(<rule>)` comment that suppressed
                    nothing in this run — the offending code was fixed or
                    moved, and the suppression now only misleads readers.

Suppression: append `// dpc-lint: ok(<rule>) <reason>` to the offending
line, or place it on the line directly above.

Self-test: `--selftest` lints the committed negative fixtures under
tests/lint_fixtures/ and requires that exactly the `// expect: <rule>`
annotations fire — the linter proves its own teeth the same way dpc_check's
mutation tier does. Both the selftest and the src/ pass run under ctest.

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "lint_fixtures"

# Files that are allowed to spell std::mutex / std guards: the wrapper layer
# itself and the detector underneath it.
WRAPPER_FILES = {
    "src/sim/thread_annotations.hpp",
    "src/sim/lockrank.hpp",
    "src/sim/lockrank.cpp",
}

SUPPRESS_RE = re.compile(r"//\s*dpc-lint:\s*ok\((?P<rules>[\w ,-]+)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*(?P<rules>[\w ,-]+)")

RAW_MUTEX_RE = re.compile(r"\bstd::(?:recursive_)?(?:shared_|timed_)?mutex\b")
RAW_GUARD_RE = re.compile(
    r"\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b")
DOORBELL_RE = re.compile(r"(?:->|\.)doorbell\(")
# A "publish" before the doorbell: any store into host/guest memory, a
# release-ordered atomic store, or an explicit fence.
PUBLISH_RE = re.compile(
    r"\.store\(|\.store<|host\.write\(|write_host\(|atomic_thread_fence")
DOORBELL_LOOKBACK = 15
SQE_WRITE_RE = re.compile(r"\bsqe(?:\.|->)\w+\s*(?:[|&+-]?=)[^=]")
HOT_LOOKUP_RE = re.compile(
    r"\b(?:histogram|counter|gauge)\(\s*\"[^\"]*\"\s*\)\s*\.\s*"
    r"(?:record|add|inc|set)\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|high_resolution_clock)\b")
SIM_STEADY_RE = re.compile(r"\bstd::chrono::steady_clock\b")

# The files whose stored payloads carry CRCs, and the restamp idioms.
CHECKSUM_STORE_FILES = {
    "src/ssd/ssd.cpp",
    "src/kv/kv_store.cpp",
    "src/dfs/backend.cpp",
}
MEMCPY_CALL_RE = re.compile(r"\bmemcpy\(\s*(?P<dest>[^,]*)")
STORED_PAYLOAD_RE = re.compile(r"\.\s*data\s*\.\s*data\s*\(")
STAMP_RE = re.compile(r"\bstamp_\w+_crc\b|\.crc\s*=")
STAMP_WINDOW = 4

# Lock-free region markers and what counts as "taking a lock" inside one:
# the annotated sim:: guards, the std:: guards (already flagged elsewhere,
# but doubly wrong here), and bare .lock()/lock_bucket()-style calls.
LOCKFREE_BEGIN_RE = re.compile(r"//\s*dpc-lint:\s*lockfree-begin\((?P<tag>[\w-]+)\)")
LOCKFREE_END_RE = re.compile(r"//\s*dpc-lint:\s*lockfree-end\((?P<tag>[\w-]+)\)")
LOCK_ACQUIRE_RE = re.compile(
    r"\bsim::(?:LockGuard|UniqueLock|SharedLockGuard)\b"
    r"|\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"|(?:\.|->)lock\s*\(|\block_bucket\s*\(|\block_entry\s*\(")

# fixed-deadline: the health-scored backends (src/dfs/, src/kv/) derive
# their waits from HealthBoard::deadline() — the scaled observed p99 — not
# from the fixed calib timeout constants, which can neither track a slow
# regime nor cut a gray-failing one short. The no-board fallback keeps the
# constant under an explicit `// dpc-lint: ok(fixed-deadline)`.
FIXED_DEADLINE_RE = re.compile(r"\bk(?:KvOp|NvmeCommand)Timeout\b")

# kvfs-commit: KVFS mutates the store only through kv::Batch (commit()).
KVFS_SINGLE_MUTATION_RE = re.compile(
    r"\bstore_->put\(|->write_sub\(|->erase\(")

ALL_RULES = (
    "raw-mutex",
    "raw-guard",
    "doorbell-fence",
    "sqe-encode",
    "hot-path-lookup",
    "wall-clock",
    "checksum-stamp",
    "lockfree-mutex",
    "stale-suppression",
    "fixed-deadline",
    "kvfs-commit",
)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self) -> tuple[str, int, str]:
        return (str(self.path), self.line, self.rule)

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def in_fixtures(rel: str) -> bool:
    return rel.startswith("tests/lint_fixtures/")


def strip_comment(line: str) -> str:
    """Drops // comments so commented-out code is not linted."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


class FileCtx:
    """Per-file lint state: the lines, plus which suppressions earned their
    keep (for the stale-suppression rule)."""

    def __init__(self, path: Path, lines: list[str]):
        self.path = path
        self.lines = lines
        self.used: set[tuple[int, str]] = set()  # (0-based comment line, rule)

    def suppressed(self, idx: int, rule: str) -> bool:
        """True if line `idx` (0-based) carries or follows an ok(<rule>)."""
        for probe in (idx, idx - 1):
            if probe < 0:
                continue
            m = SUPPRESS_RE.search(self.lines[probe])
            if m and rule in [r.strip() for r in m.group("rules").split(",")]:
                self.used.add((probe, rule))
                return True
        return False


def lint_file(path: Path, findings: list[Finding]) -> None:
    rel = str(path.relative_to(REPO))
    lines = path.read_text(encoding="utf-8").splitlines()
    ctx = FileCtx(path, lines)
    in_wrapper = rel in WRAPPER_FILES
    in_sim = rel.startswith("src/sim/")
    deadline_scope = (rel.startswith("src/dfs/") or rel.startswith("src/kv/")
                      or in_fixtures(rel))
    kvfs_scope = rel.startswith("src/kvfs/") or in_fixtures(rel)
    lockfree_tag: str | None = None
    lockfree_open_line = 0

    for i, raw in enumerate(lines):
        line = strip_comment(raw)
        n = i + 1

        # Region tracking reads the *raw* line: the markers are comments.
        begin = LOCKFREE_BEGIN_RE.search(raw)
        end = LOCKFREE_END_RE.search(raw)
        if begin:
            if lockfree_tag is not None:
                findings.append(Finding(
                    path, n, "lockfree-mutex",
                    f"lockfree-begin({begin.group('tag')}) while "
                    f"{lockfree_tag!r} (opened line {lockfree_open_line}) "
                    "is still open — regions must not nest"))
            lockfree_tag = begin.group("tag")
            lockfree_open_line = n
        elif end:
            if lockfree_tag != end.group("tag"):
                findings.append(Finding(
                    path, n, "lockfree-mutex",
                    f"lockfree-end({end.group('tag')}) does not match the "
                    f"open region {lockfree_tag!r}"))
            lockfree_tag = None
        elif (lockfree_tag is not None and LOCK_ACQUIRE_RE.search(line)
                and not ctx.suppressed(i, "lockfree-mutex")):
            findings.append(Finding(
                path, n, "lockfree-mutex",
                f"lock acquisition inside lockfree region "
                f"({lockfree_tag!r}, opened line {lockfree_open_line}) — "
                "the seqlock read path must stay lock-free; move the "
                "locked fallback below lockfree-end"))

        if not in_wrapper:
            if RAW_MUTEX_RE.search(line) and not ctx.suppressed(i,
                                                                "raw-mutex"):
                findings.append(Finding(
                    path, n, "raw-mutex",
                    "raw std::mutex — use sim::AnnotatedMutex / "
                    "sim::AnnotatedSharedMutex so the thread-safety "
                    "annotations and the lock-rank detector see it"))
            if RAW_GUARD_RE.search(line) and not ctx.suppressed(i,
                                                                "raw-guard"):
                findings.append(Finding(
                    path, n, "raw-guard",
                    "std guard — use sim::LockGuard / sim::UniqueLock / "
                    "sim::SharedLockGuard (SCOPED_CAPABILITY-annotated)"))

        if (rel != "src/pcie/dma.cpp" and DOORBELL_RE.search(line)
                and not ctx.suppressed(i, "doorbell-fence")):
            lo = max(0, i - DOORBELL_LOOKBACK)
            window = [strip_comment(l) for l in lines[lo:i]]
            if not any(PUBLISH_RE.search(w) for w in window):
                findings.append(Finding(
                    path, n, "doorbell-fence",
                    "doorbell with no preceding publish (store / "
                    "release-store / DMA write) in the prior "
                    f"{DOORBELL_LOOKBACK} lines — the device may see the "
                    "ring update before the descriptor"))

        if (rel != "src/nvme/spec.cpp" and SQE_WRITE_RE.search(line)
                and not ctx.suppressed(i, "sqe-encode")):
            findings.append(Finding(
                path, n, "sqe-encode",
                "SQE field written outside nvme/spec.cpp encode_*/decode_* "
                "helpers — wire-format knowledge lives in one file"))

        if (rel != "src/kvfs/fsck.cpp" and HOT_LOOKUP_RE.search(line)
                and not ctx.suppressed(i, "hot-path-lookup")):
            findings.append(Finding(
                path, n, "hot-path-lookup",
                "registry name-lookup fused with record/add — cache the "
                "instrument pointer at construction (lookup takes the "
                "registry lock and hashes the name per call)"))

        if WALL_CLOCK_RE.search(line) and not ctx.suppressed(i, "wall-clock"):
            findings.append(Finding(
                path, n, "wall-clock",
                "wall-clock read — modelled time is sim::Nanos; real "
                "clocks make runs non-reproducible"))
        if in_sim and SIM_STEADY_RE.search(line) and not ctx.suppressed(
                i, "wall-clock"):
            findings.append(Finding(
                path, n, "wall-clock",
                "steady_clock inside the time model — src/sim/ must be "
                "clock-free"))

        if (deadline_scope and FIXED_DEADLINE_RE.search(line)
                and not ctx.suppressed(i, "fixed-deadline")):
            findings.append(Finding(
                path, n, "fixed-deadline",
                "fixed timeout constant on a health-scored backend path — "
                "cut retries at HealthBoard::deadline() (scaled observed "
                "p99) so the wait tracks the peer's actual regime; keep "
                "the calib constant only as the no-board fallback under an "
                "explicit ok(fixed-deadline)"))

        if (kvfs_scope and KVFS_SINGLE_MUTATION_RE.search(line)
                and not ctx.suppressed(i, "kvfs-commit")):
            findings.append(Finding(
                path, n, "kvfs-commit",
                "single-key KV mutation in KVFS — stage it into the op's "
                "kv::Batch and send that through commit(), so the op "
                "lands whole or not at all"))

        if rel in CHECKSUM_STORE_FILES:
            m = MEMCPY_CALL_RE.search(line)
            if (m and STORED_PAYLOAD_RE.search(m.group("dest"))
                    and not ctx.suppressed(i, "checksum-stamp")):
                lo = max(0, i - STAMP_WINDOW)
                hi = min(len(lines), i + STAMP_WINDOW + 1)
                window = [strip_comment(l) for l in lines[lo:hi]]
                if not any(STAMP_RE.search(w) for w in window):
                    findings.append(Finding(
                        path, n, "checksum-stamp",
                        "payload memcpy into a checksummed store with no "
                        f"CRC restamp within {STAMP_WINDOW} lines — route "
                        "the mutation through the stamp_*_crc helper or "
                        "the write path that calls it"))

    if lockfree_tag is not None:
        findings.append(Finding(
            path, lockfree_open_line, "lockfree-mutex",
            f"lockfree-begin({lockfree_tag}) never closed by a matching "
            "lockfree-end"))

    # stale-suppression: every ok(<rule>) must have earned its keep above.
    for i, raw in enumerate(lines):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        for rule in [r.strip() for r in m.group("rules").split(",")]:
            if rule not in ALL_RULES:
                if not ctx.suppressed(i, "stale-suppression"):
                    findings.append(Finding(
                        path, i + 1, "stale-suppression",
                        f"suppression names unknown rule '{rule}' — "
                        "typo, or the rule was removed"))
                continue
            if (i, rule) not in ctx.used and not ctx.suppressed(
                    i, "stale-suppression"):
                findings.append(Finding(
                    path, i + 1, "stale-suppression",
                    f"ok({rule}) suppressed nothing in this run — the "
                    "offending code was fixed or moved; delete the "
                    "suppression"))


# ---------------------------------------------------------------------------
# Driver

def collect_files(roots: list[Path]) -> list[Path] | None:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
        else:
            print(f"dpc_lint: no such path: {root}", file=sys.stderr)
            return None
    return files


def lint_paths(files: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for f in files:
        lint_file(f, findings)
    # One line can trip a rule twice (e.g. both wall-clock patterns); report
    # each (file, line, rule) once.
    unique = {fi.key(): fi for fi in findings}
    return [unique[k] for k in sorted(unique)]


def run_selftest() -> int:
    """Lints the committed negative fixtures and requires exactly the
    annotated findings: every `// expect: <rule>` line must fire, nothing
    unannotated may."""
    if not FIXTURES.is_dir():
        print(f"dpc_lint: selftest: no fixtures at {FIXTURES}",
              file=sys.stderr)
        return 2
    files = sorted(FIXTURES.glob("*.cpp")) + sorted(FIXTURES.glob("*.hpp"))
    if not files:
        print("dpc_lint: selftest: fixtures directory is empty",
              file=sys.stderr)
        return 2

    expected: set[tuple[str, int, str]] = set()
    for f in files:
        for i, raw in enumerate(f.read_text(encoding="utf-8").splitlines()):
            m = EXPECT_RE.search(raw)
            if not m:
                continue
            for rule in [r.strip() for r in m.group("rules").split(",")]:
                expected.add((str(f), i + 1, rule))

    actual = {fi.key(): fi for fi in lint_paths(files)}
    missing = sorted(expected - set(actual))
    unexpected = sorted(set(actual) - expected)

    ok = True
    for path, line, rule in missing:
        rel = Path(path).relative_to(REPO)
        print(f"dpc_lint: selftest: {rel}:{line}: [{rule}] expected but "
              "did NOT fire — the rule lost its teeth", file=sys.stderr)
        ok = False
    for key in unexpected:
        print(f"dpc_lint: selftest: unexpected finding: {actual[key]}",
              file=sys.stderr)
        ok = False
    if ok:
        print(f"dpc_lint: selftest ok ({len(expected)} expected finding(s) "
              f"across {len(files)} fixture(s) all fired)")
        return 0
    print("dpc_lint: selftest FAILED", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--selftest", action="store_true",
                    help="lint tests/lint_fixtures/ and require exactly "
                         "the annotated findings")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0

    if args.selftest:
        return run_selftest()

    roots = [Path(p).resolve() for p in args.paths] if args.paths else [SRC]
    files = collect_files(roots)
    if files is None:
        return 2

    findings = lint_paths(files)
    for f in findings:
        print(f)
    if findings:
        print(f"dpc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"dpc_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
