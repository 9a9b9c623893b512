#!/usr/bin/env python3
"""Repo-specific lint for dseq (run by the lint CI job, the `lint_tree` ctest
entry and by hand).

Rules (suppress a finding with a `// dseq-lint: allow(<rule>)` comment on
the offending line or the line above it):

  naked-new            `new`/`delete` expressions in src/ — ownership lives
                       in containers and smart pointers, and process-wide
                       state that is never destroyed in a NoDestructor
                       (src/util/common.h). src/ has no exception.
  unseeded-rng         rand()/srand()/std::random_device outside
                       src/datagen/ — results must be reproducible from a
                       seed; benches and tests derive their RNGs from
                       explicit seeds.
  hot-path-string-copy owning std::string `key`/`value`/`payload`
                       parameters in src/dataflow/ and src/spill/ — records
                       are views into arenas; an owning parameter on the
                       emit/combine path silently copies every record.
  spill-file-raii      `new SpillFile` anywhere, and raw `SpillFile*`
                       outside src/spill/spill_file.{h,cc} — every spill
                       file must be owned by RAII so a dead run cannot leak
                       droppings (SpillWriter's borrowed pointer lives in
                       the exempt header).
  raw-sync-primitive   bare std synchronization primitives (std::mutex,
                       std::lock_guard, std::condition_variable, and their
                       relatives) outside src/util/sync.h — all locking goes
                       through the annotated dseq::Mutex/MutexLock
                       wrappers so Clang Thread Safety Analysis sees it.
  detached-thread      std::thread::detach() anywhere — detached threads
                       outlive round teardown, dodge the error contract, and
                       are invisible to TSan's end-of-test checks; join.
  raw-clock-call       steady_clock::now() outside src/obs/ — all timestamps
                       go through obs::Now()/obs::NowNs() (src/obs/trace.h)
                       so spans, metrics, and timeouts share one clock and
                       land on the merged cross-process timeline.
  reduce-body          std::stable_sort in src/ outside
                       src/dataflow/shuffle_buffer.{h,cc}, and calls of
                       ShuffleBuffer::SortByKey outside
                       src/dataflow/map_shard.cc — the stable sort that
                       fixes each key's value order is SortByKey, run once
                       per bucket by RunMapShard and shared by both
                       backends; the reduce side only merges, and a second
                       sort would drift from the first unnoticed.
  round-entry          calls of RunProcRound outside src/dataflow/engine.cc
                       and src/rpc/proc_backend.{h,cc} — RunMapReduce is
                       the one way to run a round, on either backend; a
                       second caller of the coordinator would be a second
                       backend dispatch.
  dfs-input            calls of MineDesqDfsGrids in src/ outside
                       src/core/desq_dfs.{h,cc}, and of DeserializeNfa in
                       src/ outside src/nfa/serializer.{h,cc} — DESQ-DFS
                       mines from the flat DfsInput store, built straight
                       from the sequences or decoded straight from the NFA
                       bytes (DfsInput::AddNfa); the grid adapter exists for
                       the frozen benchmark replay, and a miner that builds
                       a StateGrid per sequence or an OutputNfa per record
                       only to mine it pays the per-edge allocations and the
                       label map the store removed.
  fst-step             calls of StepTransition and of the FST's .Matches /
                       .ComputeOutput (or ->) in src/ outside
                       src/fst/fst.{h,cc} and src/core/grid.{h,cc} — the
                       FST step and its σ rule run once per (transition
                       class, item) in the StepTable build; every
                       simulation reads the job's table, and a second
                       stepping site would redo the per-step work the table
                       removed and could drift from its σ rule.
  env-knob             getenv in src/ — the library is configured through
                       DataflowOptions and the miners' options structs,
                       never the environment; the one exemption is the
                       DSEQ_PROC_TEST_CHUNK_BYTES test hook read by
                       MaxSegmentChunkBytes in src/rpc/proc_backend.cc.
  header-guard         src/ and tests/ headers must use the canonical
                       DSEQ_<PATH>_H_ include guard.
  header-self-contained (--check-headers) every header must compile on its
                       own: g++ -fsyntax-only over a TU that includes just
                       the header — headers include what they use.

--selftest feeds synthetic snippets through every text rule and verifies the
exact findings (including that `dseq-lint: allow(...)` escapes and comment/
string stripping are honored); it is registered as the `lint_selftest` ctest
entry.

Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"dseq-lint:\s*allow\(([a-z-]+)\)")

def strip_code(text):
    """Blanks comments, string literals, and char literals, preserving line
    structure so reported line numbers match the file. A character scanner,
    not regexes: an apostrophe inside a comment must not open a char
    literal."""
    out = []
    state = "code"  # code | line_comment | block_comment | string | char
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, repl = "line_comment", "  "
                i += 1
            elif c == "/" and nxt == "*":
                state, repl = "block_comment", "  "
                i += 1
            elif c == '"':
                state, repl = "string", " "
            elif c == "'":
                state, repl = "char", " "
            else:
                repl = c
        else:
            if c == "\n":
                repl = "\n"
                if state == "line_comment":
                    state = "code"
            else:
                repl = " "
                if state == "block_comment" and c == "*" and nxt == "/":
                    state, repl = "code", "  "
                    i += 1
                elif state in ("string", "char") and c == "\\":
                    repl = "  "
                    i += 1
                elif (state == "string" and c == '"') or \
                        (state == "char" and c == "'"):
                    state = "code"
        out.append(repl)
        i += 1
    return "".join(out)


def source_files(roots, exts):
    for root in roots:
        for dirpath, _, names in os.walk(os.path.join(REPO, root)):
            for name in sorted(names):
                if os.path.splitext(name)[1] in exts:
                    yield os.path.relpath(os.path.join(dirpath, name), REPO)


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, path, lineno, rule, message, raw_lines):
        for candidate in (lineno - 1, lineno - 2):
            if 0 <= candidate < len(raw_lines):
                allow = ALLOW_RE.search(raw_lines[candidate])
                if allow and allow.group(1) == rule:
                    return
        self.findings.append(f"{path}:{lineno}: [{rule}] {message}")

    # --- rules --------------------------------------------------------------

    NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (nothrow)` still matches later
    DELETE_RE = re.compile(r"\bdelete\b(\[\])?\s*[^;,)\s]")

    def check_naked_new(self, path, raw_lines, code_lines):
        for i, line in enumerate(code_lines, start=1):
            if re.search(r"=\s*delete\b", line):
                line = re.sub(r"=\s*delete\b", "", line)
            if self.NEW_RE.search(line):
                self.report(path, i, "naked-new",
                            "naked `new` — own allocations with containers "
                            "or smart pointers", raw_lines)
            if self.DELETE_RE.search(line):
                self.report(path, i, "naked-new",
                            "naked `delete` — pair allocation and ownership "
                            "in one RAII type", raw_lines)

    RNG_RE = re.compile(r"\b(?:rand|srand)\s*\(|std::random_device")

    def check_unseeded_rng(self, path, raw_lines, code_lines):
        if path.startswith("src/datagen/"):
            return
        for i, line in enumerate(code_lines, start=1):
            if self.RNG_RE.search(line):
                self.report(path, i, "unseeded-rng",
                            "non-reproducible RNG — derive a seeded "
                            "std::mt19937_64 instead", raw_lines)

    STRING_PARAM_RE = re.compile(
        r"(?:const\s+std::string\s*&|std::string\s+)\s*"
        r"(?:key|value|payload)\s*[,)]")

    def check_hot_path_string_copy(self, path, raw_lines, code_lines):
        if not (path.startswith("src/dataflow/") or
                path.startswith("src/spill/")):
            return
        for i, line in enumerate(code_lines, start=1):
            if self.STRING_PARAM_RE.search(line):
                self.report(path, i, "hot-path-string-copy",
                            "owning string parameter on the record path — "
                            "take std::string_view", raw_lines)

    SPILL_EXEMPT = {"src/spill/spill_file.h", "src/spill/spill_file.cc"}

    def check_spill_file_raii(self, path, raw_lines, code_lines):
        for i, line in enumerate(code_lines, start=1):
            if re.search(r"\bnew\s+SpillFile\b", line):
                self.report(path, i, "spill-file-raii",
                            "heap-allocated SpillFile — hold it by value so "
                            "the file dies with its owner", raw_lines)
            if path not in self.SPILL_EXEMPT and \
                    re.search(r"\bSpillFile\s*\*", line):
                self.report(path, i, "spill-file-raii",
                            "raw SpillFile pointer outside spill_file.{h,cc} "
                            "— pass SpillFile& or move the value", raw_lines)

    # The annotated wrappers themselves are the one sanctioned home for the
    # std primitives; everything else must lock through them so the locking
    # contract stays visible to Clang Thread Safety Analysis.
    SYNC_EXEMPT = {"src/util/sync.h"}
    SYNC_RE = re.compile(
        r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
        r"shared_lock|condition_variable(?:_any)?)\b")

    def check_raw_sync_primitive(self, path, raw_lines, code_lines):
        if path in self.SYNC_EXEMPT:
            return
        for i, line in enumerate(code_lines, start=1):
            if self.SYNC_RE.search(line):
                self.report(path, i, "raw-sync-primitive",
                            "bare std synchronization primitive — use the "
                            "annotated dseq::Mutex/MutexLock "
                            "(src/util/sync.h)", raw_lines)

    DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")

    def check_detached_thread(self, path, raw_lines, code_lines):
        for i, line in enumerate(code_lines, start=1):
            if self.DETACH_RE.search(line):
                self.report(path, i, "detached-thread",
                            "detached thread — join it: detached threads "
                            "outlive teardown and dodge the error contract",
                            raw_lines)

    # The trace clock (src/obs/trace.h) is the one sanctioned reader of the
    # monotonic clock; a second call site would put its timestamps on a
    # different baseline than the merged trace timeline.
    CLOCK_EXEMPT_PREFIX = "src/obs/"
    CLOCK_RE = re.compile(r"\bsteady_clock\s*::\s*now\s*\(")

    def check_raw_clock_call(self, path, raw_lines, code_lines):
        if path.startswith(self.CLOCK_EXEMPT_PREFIX):
            return
        for i, line in enumerate(code_lines, start=1):
            if self.CLOCK_RE.search(line):
                self.report(path, i, "raw-clock-call",
                            "raw steady_clock::now() — read time through "
                            "obs::Now()/obs::NowNs() (src/obs/trace.h) so "
                            "all timestamps share the trace clock", raw_lines)

    # Each bucket is stable-sorted once, by ShuffleBuffer::SortByKey at seal
    # (RunMapShard); both backends' reduce side only merges. A stable sort
    # elsewhere, or a second SortByKey caller, is a second bucket sort.
    STABLE_SORT_EXEMPT = {"src/dataflow/shuffle_buffer.h",
                          "src/dataflow/shuffle_buffer.cc"}
    SORT_BY_KEY_EXEMPT = STABLE_SORT_EXEMPT | {"src/dataflow/map_shard.cc"}
    STABLE_SORT_RE = re.compile(r"\bstable_sort\s*\(")
    SORT_BY_KEY_RE = re.compile(r"\bSortByKey\s*\(")

    def check_reduce_body(self, path, raw_lines, code_lines):
        if not path.startswith("src/"):
            return
        for i, line in enumerate(code_lines, start=1):
            if path not in self.STABLE_SORT_EXEMPT and \
                    self.STABLE_SORT_RE.search(line):
                self.report(path, i, "reduce-body",
                            "stable sort outside shuffle_buffer.{h,cc} — "
                            "buckets are sorted once, by "
                            "ShuffleBuffer::SortByKey at seal; reduce a "
                            "column through RunReduceColumn's merge",
                            raw_lines)
            elif path not in self.SORT_BY_KEY_EXEMPT and \
                    self.SORT_BY_KEY_RE.search(line):
                self.report(path, i, "reduce-body",
                            "SortByKey outside map_shard.cc — RunMapShard "
                            "sorts each bucket once, at seal or spill",
                            raw_lines)

    # RunMapReduce dispatches a round to its backend; the coordinator's own
    # files define RunProcRound, and nothing else calls it.
    ROUND_ENTRY_EXEMPT = {"src/dataflow/engine.cc", "src/rpc/proc_backend.h",
                          "src/rpc/proc_backend.cc"}
    ROUND_ENTRY_RE = re.compile(r"\bRunProcRound\s*\(")

    def check_round_entry(self, path, raw_lines, code_lines):
        if path in self.ROUND_ENTRY_EXEMPT:
            return
        for i, line in enumerate(code_lines, start=1):
            if self.ROUND_ENTRY_RE.search(line):
                self.report(path, i, "round-entry",
                            "RunProcRound called directly — run the round "
                            "through RunMapReduce with options.backend = "
                            "DataflowBackend::kProc", raw_lines)

    # Miners feed DESQ-DFS through DfsInput::Add and DfsInput::AddNfa; only
    # the defining files may name the StateGrid adapter or the OutputNfa
    # decoder.
    DFS_INPUT_RULES = [
        (re.compile(r"\bMineDesqDfsGrids\s*\("),
         {"src/core/desq_dfs.h", "src/core/desq_dfs.cc"},
         "MineDesqDfsGrids called in src/ — add the sequences to a DfsInput "
         "(DfsInput::Add) and mine it with MineDesqDfs"),
        (re.compile(r"\bDeserializeNfa\s*\("),
         {"src/nfa/serializer.h", "src/nfa/serializer.cc"},
         "DeserializeNfa called in src/ — decode the NFA bytes into a "
         "DfsInput (DfsInput::AddNfa) and mine it with MineDesqDfs"),
    ]

    def check_dfs_input(self, path, raw_lines, code_lines):
        if not path.startswith("src/"):
            return
        for pattern, exempt, message in self.DFS_INPUT_RULES:
            if path in exempt:
                continue
            for i, line in enumerate(code_lines, start=1):
                if pattern.search(line):
                    self.report(path, i, "dfs-input", message, raw_lines)

    # The FST step runs in one place: the StepTable build (grid.{h,cc}) over
    # the Fst's own predicates (fst.{h,cc}).
    FST_STEP_RE = re.compile(
        r"\bStepTransition\s*\(|(?:\.|->)\s*(?:Matches|ComputeOutput)\s*\(")
    FST_STEP_EXEMPT = {"src/fst/fst.h", "src/fst/fst.cc", "src/core/grid.h",
                       "src/core/grid.cc"}

    def check_fst_step(self, path, raw_lines, code_lines):
        if not path.startswith("src/") or path in self.FST_STEP_EXEMPT:
            return
        for i, line in enumerate(code_lines, start=1):
            if self.FST_STEP_RE.search(line):
                self.report(path, i, "fst-step",
                            "FST step outside the StepTable build — read the "
                            "job's StepTable (StepTable::Walk, Step)",
                            raw_lines)

    # Options structs are the library's one configuration surface. The
    # exempt site is pinned by file and by the variable it reads (the raw
    # line names it; the stripped line has the string blanked).
    ENV_KNOB_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")
    ENV_KNOB_EXEMPT = ("src/rpc/proc_backend.cc",
                       '"DSEQ_PROC_TEST_CHUNK_BYTES"')

    def check_env_knob(self, path, raw_lines, code_lines):
        if not path.startswith("src/"):
            return
        exempt_path, exempt_var = self.ENV_KNOB_EXEMPT
        for i, line in enumerate(code_lines, start=1):
            if not self.ENV_KNOB_RE.search(line):
                continue
            if path == exempt_path and exempt_var in raw_lines[i - 1]:
                continue
            self.report(path, i, "env-knob",
                        "getenv in src/ — add a field to the options struct "
                        "instead of an environment knob", raw_lines)

    def check_header_guard(self, path, raw_lines, code_lines):
        expected = "DSEQ_" + re.sub(r"[/.]", "_", path.upper()
                                    .removeprefix("SRC/")).rstrip("_") + "_"
        text = "\n".join(code_lines)
        match = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)", text)
        if not match or match.group(1) != expected or \
                match.group(2) != expected:
            found = match.group(1) if match else "none"
            self.report(path, 1, "header-guard",
                        f"include guard must be {expected} (found {found})",
                        raw_lines)

    # --- driver -------------------------------------------------------------

    def lint_text(self, path, raw):
        """Applies every text rule to one file's contents with the same
        scoping as the tree walk (shared by run() and the self-test)."""
        raw_lines = raw.splitlines()
        code_lines = strip_code(raw).splitlines()
        if path.startswith("src/"):
            self.check_naked_new(path, raw_lines, code_lines)
        self.check_unseeded_rng(path, raw_lines, code_lines)
        self.check_hot_path_string_copy(path, raw_lines, code_lines)
        self.check_spill_file_raii(path, raw_lines, code_lines)
        self.check_raw_sync_primitive(path, raw_lines, code_lines)
        self.check_detached_thread(path, raw_lines, code_lines)
        self.check_raw_clock_call(path, raw_lines, code_lines)
        self.check_reduce_body(path, raw_lines, code_lines)
        self.check_round_entry(path, raw_lines, code_lines)
        self.check_dfs_input(path, raw_lines, code_lines)
        self.check_fst_step(path, raw_lines, code_lines)
        self.check_env_knob(path, raw_lines, code_lines)
        if path.endswith(".h") and (path.startswith("src/") or
                                    path.startswith("tests/")):
            self.check_header_guard(path, raw_lines, code_lines)
            return True
        return False

    def run(self, check_headers):
        headers = []
        for path in sorted(set(source_files(["src", "tests", "tools", "fuzz",
                                             "bench"], {".h", ".cc"}))):
            with open(os.path.join(REPO, path), encoding="utf-8") as f:
                raw = f.read()
            if self.lint_text(path, raw):
                headers.append(path)
        if check_headers:
            self.check_self_contained(headers)
        return self.findings

    def check_self_contained(self, headers):
        for path in headers:
            with tempfile.NamedTemporaryFile(
                    mode="w", suffix=".cc", delete=False) as tu:
                tu.write(f'#include "{path}"\n')
                tu_path = tu.name
            try:
                proc = subprocess.run(
                    ["g++", "-std=c++17", "-fsyntax-only", "-I", REPO,
                     "-I", "/usr/include", tu_path],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    first_error = next(
                        (l for l in proc.stderr.splitlines() if "error" in l),
                        proc.stderr.strip().splitlines()[-1]
                        if proc.stderr.strip() else "compile failed")
                    self.report(path, 1, "header-self-contained",
                                f"header does not compile standalone: "
                                f"{first_error}", [])
            finally:
                os.unlink(tu_path)


# Self-test corpus: (case name, virtual path, snippet, rule, expected count
# of findings for that rule). Paths are virtual — nothing is written to disk;
# each snippet runs through lint_text() exactly as a real file would.
SELFTEST_CASES = [
    # raw-sync-primitive: the sync wrappers are the only sanctioned home.
    ("sync: std::mutex member in src", "src/foo/bar.h",
     "dseq::Mutex ok;\nstd::mutex mu;\n", "raw-sync-primitive", 1),
    # One finding per offending line, however many primitives it names.
    ("sync: std::lock_guard in tests", "tests/foo_test.cc",
     "std::lock_guard<std::mutex> lock(mu);\n", "raw-sync-primitive", 1),
    ("sync: std::condition_variable in src", "src/foo/bar.cc",
     "std::condition_variable cv;\n", "raw-sync-primitive", 1),
    ("sync: exempt inside src/util/sync.h", "src/util/sync.h",
     "std::mutex mu_;\nstd::condition_variable cv_;\n",
     "raw-sync-primitive", 0),
    ("sync: allow() on the line", "src/foo/bar.cc",
     "std::mutex mu;  // dseq-lint: allow(raw-sync-primitive)\n",
     "raw-sync-primitive", 0),
    ("sync: allow() on the line above", "src/foo/bar.cc",
     "// dseq-lint: allow(raw-sync-primitive)\nstd::mutex mu;\n",
     "raw-sync-primitive", 0),
    ("sync: mention in a comment is not a use", "src/foo/bar.cc",
     "// replaces std::mutex with dseq::Mutex\ndseq::Mutex mu;\n",
     "raw-sync-primitive", 0),
    ("sync: mention in a string is not a use", "src/foo/bar.cc",
     'const char* kMsg = "std::mutex is banned";\n',
     "raw-sync-primitive", 0),
    # detached-thread: no fire-and-forget threads anywhere.
    ("detach: direct call", "src/foo/bar.cc",
     "std::thread t([]{});\nt.detach();\n", "detached-thread", 1),
    ("detach: through a pointer", "tests/foo_test.cc",
     "worker->detach();\n", "detached-thread", 1),
    ("detach: allow() escape", "src/foo/bar.cc",
     "t.detach();  // dseq-lint: allow(detached-thread)\n",
     "detached-thread", 0),
    ("detach: comment is not a use", "src/foo/bar.cc",
     "// never t.detach() here\nt.join();\n", "detached-thread", 0),
    # raw-clock-call: the trace clock is the only sanctioned clock reader.
    ("clock: steady_clock::now() in src", "src/foo/bar.cc",
     "auto t = std::chrono::steady_clock::now();\n", "raw-clock-call", 1),
    ("clock: fires in bench too", "bench/foo_bench.cc",
     "double t0 = Seconds(steady_clock::now());\n", "raw-clock-call", 1),
    ("clock: exempt under src/obs/", "src/obs/trace.cc",
     "auto t = std::chrono::steady_clock::now();\n", "raw-clock-call", 0),
    ("clock: allow() escape", "src/foo/bar.cc",
     "auto t = std::chrono::steady_clock::now();"
     "  // dseq-lint: allow(raw-clock-call)\n", "raw-clock-call", 0),
    ("clock: comment is not a use", "src/foo/bar.cc",
     "// wraps steady_clock::now() behind one clock\nauto t = obs::Now();\n",
     "raw-clock-call", 0),
    # reduce-body: one bucket sort (SortByKey at seal), a merge-only reduce.
    ("reduce-body: stable sort in the proc backend", "src/rpc/proc_backend.cc",
     "std::stable_sort(tail.begin(), tail.end(), by_key);\n",
     "reduce-body", 1),
    ("reduce-body: re-sort in RunReduceColumn", "src/dataflow/map_shard.cc",
     "std::stable_sort(entries.begin(), entries.end(), by_key);\n",
     "reduce-body", 1),
    ("reduce-body: second SortByKey caller", "src/rpc/proc_backend.cc",
     "buckets[r].SortByKey();\n", "reduce-body", 1),
    ("reduce-body: SortByKey at seal in map_shard.cc",
     "src/dataflow/map_shard.cc", "bucket.SortByKey();\n", "reduce-body", 0),
    ("reduce-body: the sort itself in shuffle_buffer.cc",
     "src/dataflow/shuffle_buffer.cc",
     "std::stable_sort(entries.begin(), entries.end(), by_key);\n",
     "reduce-body", 0),
    ("reduce-body: scoped to src/", "tests/foo_test.cc",
     "std::stable_sort(v.begin(), v.end());\n", "reduce-body", 0),
    # round-entry: RunMapReduce is the one round call for both backends.
    ("round-entry: direct call in a driver", "src/dataflow/chained.cc",
     "RoundResult r = RunProcRound(n, map_fn, false, reduce_fn, options);\n",
     "round-entry", 1),
    ("round-entry: direct call in a test", "tests/foo_test.cc",
     "auto r = RunProcRound (1, map_fn, true, reduce_fn, options);\n",
     "round-entry", 1),
    ("round-entry: the dispatch in engine.cc", "src/dataflow/engine.cc",
     "return RunProcRound(num_inputs, map_fn, combine, reduce_fn, options);\n",
     "round-entry", 0),
    ("round-entry: the definition in proc_backend.cc",
     "src/rpc/proc_backend.cc",
     "RoundResult RunProcRound(size_t num_inputs, const MapFn& map_fn,\n",
     "round-entry", 0),
    ("round-entry: comment is not a call", "src/dataflow/chained.cc",
     "// RunMapReduce calls RunProcRound() under kProc\n", "round-entry", 0),
    ("round-entry: allow() escape", "bench/foo_bench.cc",
     "RunProcRound(n, m, false, r, o);  // dseq-lint: allow(round-entry)\n",
     "round-entry", 0),
    # dfs-input: miners build a DfsInput, not a StateGrid per sequence.
    ("dfs-input: grid mining in a reduce", "src/dist/dseq_miner.cc",
     "MiningResult r = MineDesqDfsGrids(grids, weights, local);\n",
     "dfs-input", 1),
    ("dfs-input: the adapter in desq_dfs.cc", "src/core/desq_dfs.cc",
     "MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,\n",
     "dfs-input", 0),
    ("dfs-input: the declaration in desq_dfs.h", "src/core/desq_dfs.h",
     "MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,\n",
     "dfs-input", 0),
    ("dfs-input: scoped to src/", "perfbench/perfbench.cc",
     "MineDesqDfsGrids(grids, weights, local);\n", "dfs-input", 0),
    ("dfs-input: comment is not a call", "src/dist/dseq_miner.cc",
     "// replaces MineDesqDfsGrids(grids, weights, local)\n",
     "dfs-input", 0),
    ("dfs-input: allow() escape", "src/dist/naive.cc",
     "MineDesqDfsGrids(g, w, o);  // dseq-lint: allow(dfs-input)\n",
     "dfs-input", 0),
    ("dfs-input: NFA decode in a reduce", "src/dist/dcand_miner.cc",
     "nfas.push_back(DeserializeNfa(v, &pos));\n", "dfs-input", 1),
    ("dfs-input: NFA decode elsewhere in src/", "src/core/desq_dfs.cc",
     "OutputNfa nfa = DeserializeNfa (bytes);\n", "dfs-input", 1),
    ("dfs-input: the decoder in serializer.cc", "src/nfa/serializer.cc",
     "OutputNfa nfa = DeserializeNfa(bytes, &pos);\n", "dfs-input", 0),
    ("dfs-input: the declaration in serializer.h", "src/nfa/serializer.h",
     "OutputNfa DeserializeNfa(std::string_view bytes);\n", "dfs-input", 0),
    ("dfs-input: NFA decode in tests and fuzzers", "fuzz/fuzz_nfa.cc",
     "nfa = dseq::DeserializeNfa(input, &pos);\n", "dfs-input", 0),
    ("dfs-input: DeserializeNfa comment is not a call",
     "src/dist/dcand_miner.cc",
     "// no DeserializeNfa(bytes) on this path\n", "dfs-input", 0),
    # fst-step: the FST step runs only in the StepTable build.
    ("fst-step: StepTransition in a miner", "src/dist/dseq_miner.cc",
     "if (!StepTransition(fst, tr, t, dict, sigma, &out)) continue;\n",
     "fst-step", 1),
    ("fst-step: Matches in the store", "src/core/desq_dfs.cc",
     "if (!fst_->Matches(tr, T[i], *dict_)) continue;\n", "fst-step", 1),
    ("fst-step: ComputeOutput in the pivot search", "src/core/pivot.cc",
     "fst.ComputeOutput(tr, T[i], dict, &out);\n", "fst-step", 1),
    ("fst-step: spaced member call", "src/core/candidates.cc",
     "bool m = fst . Matches (tr, t, dict);\n", "fst-step", 1),
    ("fst-step: the table build in grid.cc", "src/core/grid.cc",
     "if (!StepTransition(fst, reps[cls], w, dict, prune_sigma_, &out)) {\n",
     "fst-step", 0),
    ("fst-step: the predicates in fst.cc", "src/fst/fst.cc",
     "bool Fst::Matches(const Transition& tr, ItemId t,\n", "fst-step", 0),
    ("fst-step: scoped to src/", "tests/test_util.h",
     "if (!fst.Matches(tr, t, dict)) return false;\n", "fst-step", 0),
    ("fst-step: another name is not the step", "src/dist/naive.cc",
     "bool ok = filter.MatchesAll(key);\n", "fst-step", 0),
    ("fst-step: comment is not a call", "src/core/desq_dfs.cc",
     "// no fst.Matches(tr, t, dict) here\n", "fst-step", 0),
    ("fst-step: allow() escape", "src/core/pivot.cc",
     "fst.ComputeOutput(tr, t, d, &o);  // dseq-lint: allow(fst-step)\n",
     "fst-step", 0),
    # env-knob: no configuration through the environment in src/.
    ("env-knob: getenv in src", "src/dataflow/engine.cc",
     'const char* dir = std::getenv("DSEQ_SPILL_DIR");\n', "env-knob", 1),
    ("env-knob: unqualified getenv in src", "src/dist/naive.cc",
     'if (getenv ("DSEQ_BUDGET") != nullptr) {}\n', "env-knob", 1),
    ("env-knob: the chunk-size test hook", "src/rpc/proc_backend.cc",
     'const char* env = std::getenv("DSEQ_PROC_TEST_CHUNK_BYTES");\n',
     "env-knob", 0),
    ("env-knob: another variable in the exempt file",
     "src/rpc/proc_backend.cc",
     'const char* env = std::getenv("DSEQ_PROC_PARK");\n', "env-knob", 1),
    ("env-knob: bench/ not in scope", "bench/common/bench_util.cc",
     'const char* env = std::getenv("DSEQ_BENCH_SCALE");\n', "env-knob", 0),
    ("env-knob: comment is not a call", "src/dataflow/engine.cc",
     "// never std::getenv(\"X\") here\nint x = 0;\n", "env-knob", 0),
    ("env-knob: string is not a call", "src/obs/stats.cc",
     'const char* kMsg = "getenv(X) is banned";\n', "env-knob", 0),
    ("env-knob: allow() escape", "src/foo/bar.cc",
     'std::getenv("X");  // dseq-lint: allow(env-knob)\n', "env-knob", 0),
    # Regression cases for the pre-existing rules.
    ("naked-new fires in src", "src/foo/bar.cc",
     "int* p = new int(3);\n", "naked-new", 1),
    ("naked-new ignores deleted functions", "src/foo/bar.cc",
     "Foo(const Foo&) = delete;\n", "naked-new", 0),
    ("naked-new scoped to src/", "tests/foo_test.cc",
     "int* p = new int(3);\n", "naked-new", 0),
    ("unseeded-rng fires", "src/foo/bar.cc",
     "int r = rand();\n", "unseeded-rng", 1),
    ("unseeded-rng exempt in datagen", "src/datagen/gen.cc",
     "int r = rand();\n", "unseeded-rng", 0),
    ("hot-path-string-copy fires in dataflow", "src/dataflow/foo.cc",
     "void Emit(const std::string& key);\n", "hot-path-string-copy", 1),
    ("spill-file-raii fires on heap SpillFile", "src/foo/bar.cc",
     "auto* f = new SpillFile(path);\n", "spill-file-raii", 1),
    ("header-guard fires on a wrong guard", "src/foo/bar.h",
     "#ifndef WRONG_H\n#define WRONG_H\n#endif\n", "header-guard", 1),
    ("header-guard accepts the canonical guard", "src/foo/bar.h",
     "#ifndef DSEQ_FOO_BAR_H_\n#define DSEQ_FOO_BAR_H_\n#endif\n",
     "header-guard", 0),
]


def run_selftest():
    failures = []
    for name, path, snippet, rule, expected in SELFTEST_CASES:
        linter = Linter()
        linter.lint_text(path, snippet)
        got = sum(1 for f in linter.findings if f"[{rule}]" in f)
        status = "ok" if got == expected else "FAIL"
        print(f"{status:4} {name}: expected {expected} [{rule}], got {got}")
        if got != expected:
            failures.append(name)
            for f in linter.findings:
                print(f"       {f}")
    if failures:
        print(f"\n{len(failures)} self-test case(s) failed", file=sys.stderr)
        return 1
    print(f"\nall {len(SELFTEST_CASES)} lint self-test cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check-headers", action="store_true",
                        help="also compile every header standalone (slow)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the rule self-tests instead of linting")
    args = parser.parse_args()

    if args.selftest:
        return run_selftest()

    findings = Linter().run(args.check_headers)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
