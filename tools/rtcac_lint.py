#!/usr/bin/env python3
"""rtcac_lint: project-specific static checks for the rtcac source tree.

Rules (see docs/STATIC_ANALYSIS.md for rationale):

  float-compare     src/core must not compare against floating-point
                    literals with raw ==, !=, <= or >=.  Admission
                    decisions are numeric-policy-sensitive; tolerant
                    comparisons belong in NumTraits<Num> (nearly_equal,
                    nearly_leq, snap_nonnegative) so the Rational and
                    double instantiations stay semantically aligned.

  no-rand           No rand(), std::rand or srand anywhere in src/.
                    Simulations must be reproducible from a seed; use
                    util/xorshift.h (SplitMix/xorshift) instead.

  naked-throw       src/core must not `throw std::invalid_argument`
                    directly for precondition failures; use RTCAC_REQUIRE
                    from util/contract.h so the failure mode (throw /
                    trap / off) is centrally configurable.

  include-hygiene   Project includes are quoted and src/-relative
                    ("core/bitstream.h"), never "..", never bare
                    same-directory names; system headers use <>.
                    Every header starts with #pragma once.

  signaling-state   In src/net/signaling.cpp the engine's protocol
                    state (in_flight_, outcomes_, releasing_, and the
                    renegotiation ledgers modifying_ /
                    modify_outcomes_) may be mutated only inside
                    SignalingEngine member functions named initiate,
                    release, modify*, process_* or on_* — every state
                    transition must sit on a message- or timer-driven
                    handler path (docs/FAULT_TOLERANCE.md), not in
                    accessors or plumbing.

  reroute-state     In src/net/reroute.cpp the coordinator's recovery
                    state (down_nodes_, down_links_, pending_,
                    decisions_, degraded_, the stats_ counters) may be
                    mutated only inside RerouteCoordinator member
                    functions named on_*, attempt_*, advance_to or
                    quiesce — every transition must sit on a
                    component-event or retry-clock handler path
                    (docs/FAULT_TOLERANCE.md, "Survivability"), so the
                    decision journal stays a faithful, replayable record
                    of what the event stream did.

  cac-cache-state   BasicSwitchCac's aggregate and derived-stream
                    cache state (arrival_aggr_, cell_members_,
                    cell_counts_, the live in-port lists
                    live_in_ports_/hp_in_ports_, the *_cache_ streams
                    and their *_dirty_ flags) plus the
                    mergeable-aggregate storage behind it (cell_trees_,
                    stream_arena_, lease_index_ — docs/PERFORMANCE.md,
                    "Mergeable aggregates") may be read or written only
                    inside the cache-management member functions of
                    src/core/switch_cac.cpp (constructor, add/remove/
                    reclaim, rekey (which moves a record's lease-index
                    entry and cell membership onto a new id),
                    renew_lease/drop_lease_index_entry,
                    rebuild_cell*, invalidate_*, update_in_port_lists
                    (which keeps the lists and the zeroed entries of an
                    emptied cell in line with the member counts),
                    ensure_*, compose_*, the *_scratch oracles,
                    arena_stats and the consistency audits) — never
                    from query accessors or from other translation
                    units.  Everything else must go through ensure_* so
                    the dirty-tracking invariant (clean implies inputs
                    clean), the live-list invariant (an in-port off a
                    queue's lists holds zero streams there) and the
                    tree/aggregate coherence contract (every mutation
                    flushes its root path before returning) cannot be
                    bypassed.

  admission-walk    The hop-walk arithmetic lives in exactly one place:
                    src/core/path_eval.{h,cpp} (PathEvaluator).  In the
                    admission modules (src/core, src/net, src/baseline)
                    no other file may call accumulate_cdv (beyond its
                    definition in core/cdv.{h,cpp}), compare a value
                    against a deadline with a relational operator, or
                    branch on GuaranteeMode — those are the three
                    ingredients of the walk that used to be triplicated
                    across ConnectionManager, SignalingEngine and
                    AdmissionEngine.  Engines consume PathEvaluator's
                    Decision/RejectReason instead (docs/ARCHITECTURE.md).
                    Likewise, no function outside that home may pair a
                    reservation RELEASE (.remove() / release_path) with
                    a reservation ACQUIRE (.add() / commit_hop) — a
                    release/acquire pair is a delta, and deltas execute
                    only through the DeltaTransaction core
                    (PathEvaluator::commit_delta_hops / finalize_delta),
                    which is what makes every reroute/renegotiation
                    make-before-break by construction.

  concurrency-state Threading primitives (std::mutex, std::shared_mutex,
                    std::thread, std::atomic, std::condition_variable,
                    locks, futures) are confined to the dedicated
                    concurrency modules: util/thread_annotations.h,
                    core/concurrent_cac.{h,cpp} and
                    net/admission_engine.{h,cpp}.  Everything else in
                    src/ stays single-threaded by construction, so the
                    priming/lock-order reasoning in concurrent_cac.h
                    (docs/PERFORMANCE.md, "Parallel admission") covers
                    every cross-thread access in the codebase.

  lock-order        Locking goes through the annotated RAII guards of
                    util/thread_annotations.h, never around them: no
                    raw .lock()/.unlock()/.try_lock() method calls, no
                    std::lock/std::try_lock or adopt_lock/defer_lock
                    tags, and no TSA-blind std:: guard types
                    (scoped_lock, unique_lock, lock_guard,
                    shared_lock), all of which would sidestep the clang
                    thread-safety analysis.  At most one shard-state
                    guard (ExclusiveLock/SharedLock) may be constructed
                    per function: holding several shard locks at once
                    is exactly the deadlock-prone pattern that must go
                    through ConcurrentCac::ShardLockSet, whose members
                    are the rule's only raw-call exception (they
                    implement the canonical ascending acquisition
                    order, audited by util/lock_order.h).

  guarded-by        In any class that owns a mutex (Mutex, SharedMutex
                    or their std:: equivalents), every other data
                    member must either carry an RTCAC_GUARDED_BY /
                    RTCAC_PT_GUARDED_BY annotation naming its lock or
                    an explicit allow() with a written justification
                    (immutable after construction, internally
                    synchronized, ...).  This keeps the clang analysis
                    honest: an unannotated member in a lock-owning
                    class is invisible to -Wthread-safety, so every
                    escape must be a deliberate, reviewable decision.

A finding can be suppressed on its line with a trailing comment:
    // rtcac-lint: allow(<rule-name>)

Findings are emitted compiler-style — `file:line: rule-name: message` —
so editors and CI problem matchers pick them up like gcc/clang
diagnostics.  `--rule <name>` (repeatable) restricts the run to the
named rules; anything else found is not reported.

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors.  Run from anywhere: paths are resolved against --root (default:
the repository containing this script).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Top-level directories under src/ that form the include namespace.
SRC_MODULES = ("util", "core", "atm", "sim", "net", "baseline", "rtnet", "cli")

ALLOW_RE = re.compile(r"rtcac-lint:\s*allow\(([a-z-]+)\)")

# Comparison of a floating-point literal with a raw relational operator,
# either side: `x == 0.5`, `1e-9 >= y`, `r <= 1.0f`.
FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)[fF]?"
FLOAT_CMP_RE = re.compile(
    r"(?:(?:==|!=|<=|>=)\s*" + FLOAT_LITERAL + r"(?![\w.])"
    r"|(?<![\w.])" + FLOAT_LITERAL + r"\s*(?:==|!=|<=|>=))"
)

RAND_RE = re.compile(r"(?:std::|\b)s?rand\s*\(")
NAKED_THROW_RE = re.compile(r"\bthrow\s+std::invalid_argument\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")')

# signaling-state: which SignalingEngine member we are inside (tracked
# from out-of-line definitions), which members count as protocol state,
# and what a mutation of them looks like.
SIGNALING_FUNC_RE = re.compile(r"\bSignalingEngine::(\w+)\s*\(")
SIGNALING_MUTATION_RE = re.compile(
    r"\b(?:in_flight_|outcomes_|releasing_|modifying_|modify_outcomes_)\s*"
    r"(?:\.\s*(?:emplace|try_emplace|insert|insert_or_assign|erase|clear|"
    r"extract|merge|swap)\s*\(|\[)"
)
SIGNALING_HANDLER_PREFIXES = ("process_", "on_", "initiate", "release",
                              "modify")

# reroute-state: which RerouteCoordinator member we are inside, which
# members form the survivability-layer state, and what mutating them
# looks like (container mutators on the sets/queues/journal — including
# through the degraded_.entries deque and the front-end evictions that
# keep both windows bounded — and any write to a stats_ counter).
REROUTE_FUNC_RE = re.compile(r"\bRerouteCoordinator::(\w+)\s*\(")
REROUTE_MUTATION_RE = re.compile(
    r"\b(?:pending_|decisions_|down_nodes_|down_links_|degraded_)\s*"
    r"(?:\.\s*\w+)*?\s*"
    r"(?:\.\s*(?:emplace|emplace_back|emplace_front|push_back|push_front|"
    r"pop_back|pop_front|insert|erase|clear|extract|merge|swap|resize|"
    r"assign)\s*\(|\[)"
    r"|(?:\+\+|--)\s*stats_\s*\."
    r"|\bstats_\s*\.\s*\w+\s*(?:\+\+|--|\+=|-=|=[^=])"
)
REROUTE_HANDLER_PREFIXES = ("on_", "attempt_", "advance_to", "quiesce")

# cac-cache-state: the switch CAC's aggregate/cache members — including
# the merge trees, segment arena and lease index the mergeable-aggregate
# layer added, and the per-queue live in-port lists the merges over
# in-ports read — the member we are inside (tracked from out-of-line
# definitions), and the member functions allowed to touch that state
# directly (cache management, the live-list update, lease bookkeeping,
# from-scratch oracles, the arena_stats bench hook, rekey (which moves a
# record's lease-index entry and cell membership onto a new id), the
# snapshot exporters of the
# optimistic read path (export_point_sections / dirty_queue_keys, which
# read the primed caches and dirty flags to build immutable
# publications), and the consistency audits that vouch for it all).
CAC_FUNC_RE = re.compile(r"\bBasicSwitchCac<\w+>::(\w+)\s*\(")
CAC_STATE_RE = re.compile(
    r"\b(?:arrival_aggr_|cell_counts_|cell_members_|live_in_ports_|"
    r"hp_in_ports_|filtered_cell_|"
    r"hp_cell_filtered_|offered_cache_|hp_filtered_cache_|bound_cache_|"
    r"filtered_cell_dirty_|hp_cell_dirty_|offered_dirty_|"
    r"hp_filtered_dirty_|bound_dirty_|cell_trees_|stream_arena_|"
    r"lease_index_)\b"
)
CAC_ACCESSOR_PREFIXES = (
    "BasicSwitchCac", "add", "remove", "reclaim", "rebuild_cell",
    "invalidate_", "update_in_port_lists", "ensure_", "compose_",
    "offered_aggregate_scratch",
    "higher_priority_filtered_scratch", "arrival_aggregate",
    "sustained_load", "connection_", "state_consistent",
    "bandwidth_conserved", "cache_coherent", "prime_caches",
    "renew_lease", "drop_lease_index_entry", "rekey", "arena_stats",
    "export_", "dirty_queue")

# admission-walk: the three ingredients of the per-hop admission walk.
# CDV accumulation may be *called* only from PathEvaluator (it is
# *defined* in core/cdv.{h,cpp}); deadline comparisons and GuaranteeMode
# branches may not appear outside path_eval at all within the admission
# modules.  rtnet/ and cli/ sit above admission Results and are out of
# scope (their deadline sweeps consume reported bounds, not the walk).
ADMISSION_WALK_MODULES = (("src", "core"), ("src", "net"), ("src", "baseline"))
ADMISSION_WALK_HOME = (
    ("src", "core", "path_eval.h"),
    ("src", "core", "path_eval.cpp"),
)
ACCUMULATE_CDV_DEF = (
    ("src", "core", "cdv.h"),
    ("src", "core", "cdv.cpp"),
)
ACCUMULATE_CDV_RE = re.compile(r"\baccumulate_cdv\s*\(")
# A reservation release paired with a reservation acquire in ONE
# function is a hand-rolled delta; those go through the DeltaTransaction
# core (PathEvaluator::commit_delta_hops / finalize_delta) so the
# make-before-break ordering cannot be reinvented wrong.  Either half
# alone is fine (setup only acquires, teardown only releases).
RESERVATION_RELEASE_RE = re.compile(
    r"(?:\.|->)\s*remove\s*\(|\brelease_path\s*\(")
RESERVATION_ACQUIRE_RE = re.compile(
    r"(?:\.|->)\s*add\s*\(|\bcommit_hop\s*\(")
DEADLINE_CMP_RE = re.compile(
    r"(?:<=|>=|<|(?<!-)>)\s*(?:[\w.]|->)*deadline\w*\b"
    r"|\b(?:[\w.]|->)*deadline\w*(?:\[\w+\])?\s*(?:<=|>=|[<>])")
GUARANTEE_CMP_RE = re.compile(
    r"[=!]=\s*GuaranteeMode::\w+|GuaranteeMode::\w+\s*[=!]=")

# concurrency-state: std:: threading vocabulary, and the only files in
# src/ allowed to use it.  ConcurrentCac's safety argument (priming
# invariant + canonical lock order) only holds if no other module grows
# its own ad-hoc synchronization.
CONCURRENCY_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|scoped_lock|unique_lock|"
    r"shared_lock|lock_guard|condition_variable(?:_any)?|thread|jthread|"
    r"atomic(?:_\w+)?|future|shared_future|promise|packaged_task|async|"
    r"barrier|latch|counting_semaphore|binary_semaphore|stop_token|"
    r"stop_source|call_once|once_flag)\b")
CONCURRENCY_ALLOWED = (
    ("src", "util", "thread_annotations.h"),
    ("src", "core", "concurrent_cac.h"),
    ("src", "core", "concurrent_cac.cpp"),
    ("src", "net", "admission_engine.h"),
    ("src", "net", "admission_engine.cpp"),
)

# lock-order: the annotated-wrapper layer itself is the one place raw
# mutex methods and std:: lock vocabulary legitimately appear.
LOCK_WRAPPER_HOME = ("src", "util", "thread_annotations.h")
# Raw mutex method calls (".lock()", "->try_lock_shared()", ...).
RAW_LOCK_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?:try_lock|lock|unlock)(?:_shared)?\s*\(")
# Multi-lock algorithms and lock-adoption tags: all of them exist to
# juggle several mutexes by hand, which is ShardLockSet's job.
STD_LOCK_VOCAB_RE = re.compile(
    r"\bstd::(?:lock|try_lock)\s*\(|"
    r"\bstd::(?:adopt_lock|defer_lock|try_to_lock)\b|"
    r"\bstd::(?:scoped_lock|unique_lock|lock_guard|shared_lock)\b")
# A shard-state guard construction ("const ExclusiveLock lock(...)").
# MutexLock deliberately does not count: it guards leaf mutexes
# (pending queues, the engine's record map) that are never held while
# acquiring a shard lock, so two of them cannot invert the shard order.
SHARD_GUARD_RE = re.compile(r"\b(?:ExclusiveLock|SharedLock)\s+\w+\s*[({]")
# Out-of-line member definition at column 0: tracks which qualified
# function the scan is inside (same technique as SIGNALING_FUNC_RE, but
# anchored to the line start so *calls* of qualified names never
# masquerade as definitions).
QUALIFIED_DEF_RE = re.compile(r"(\w+(?:<[\w,\s]*>)?(?:::~?\w+)+)\s*\(")

# guarded-by: mutex-owning members, and member types that are exempt
# because they are synchronization primitives themselves (the lock, the
# condition variables waiting on it, atomics, and the debug lock-order
# audit scope).
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:rtcac::)?(?:Mutex|SharedMutex)\s+\w+\s*;|"
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"mutex\s+\w+\s*;")
GUARDED_EXEMPT_RE = re.compile(
    r"\bstd::condition_variable(?:_any)?\b|\bstd::atomic\b|"
    r"\bLockOrderAudit\b")
GUARDED_ANNOTATION_RE = re.compile(r"\bRTCAC_(?:PT_)?GUARDED_BY\s*\(")
# Keywords that mark a member-level statement as something other than a
# plain data member (type aliases, nested types, constants, friends).
GUARDED_SKIP_RE = re.compile(
    r"\b(?:using|typedef|friend|static|constexpr|enum|class|struct|"
    r"template|operator)\b")
CLASS_DEF_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\b(?!.*\benum\b)"
    r".*\{")
ACCESS_LABEL_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
# Name of a plain data member: the identifier directly before the
# optional default initializer and the semicolon (the annotated and
# function-declaration cases are recognized before this is consulted).
MEMBER_NAME_RE = re.compile(r"\b(\w+)\s*(?:=[^;]*|\{[^}]*\})?;")


def strip_comments_and_strings(line: str, in_block_comment: bool):
    """Blanks out comment and string-literal bodies, preserving column
    positions, so the rule regexes never fire on prose or messages.
    Returns (code_text, comment_text, still_in_block_comment)."""
    code = []
    comment = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    quote = ""
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                comment.append(line[i:])
                break
            if c == "/" and nxt == "*":
                state = "block"
                code.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = "string"
                quote = c
                code.append(c)
                i += 1
                continue
            code.append(c)
            i += 1
        elif state == "string":
            if c == "\\":
                code.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                code.append(c)
            else:
                code.append(" ")
            i += 1
        else:  # block comment
            if c == "*" and nxt == "/":
                state = "code"
                comment.append("  ")
                i += 2
                continue
            comment.append(c)
            i += 1
    return "".join(code), "".join(comment), state == "block"


# Every rule this linter knows; --rule validates against it.
RULES = ("float-compare", "no-rand", "naked-throw", "include-hygiene",
         "signaling-state", "reroute-state", "cac-cache-state",
         "admission-walk", "concurrency-state", "lock-order", "guarded-by")


class Linter:
    def __init__(self, root: Path, rules: list[str] | None = None):
        self.root = root
        self.rules = tuple(rules) if rules else None
        self.findings: list[tuple[Path, int, str, str]] = []

    def report(self, path: Path, lineno: int, rule: str, message: str,
               comment_text: str) -> None:
        if self.rules is not None and rule not in self.rules:
            return
        if rule in ALLOW_RE.findall(comment_text):
            return
        self.findings.append((path, lineno, rule, message))

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root)
        in_core = rel.parts[:2] == ("src", "core")
        walk_restricted = (rel.parts[:2] in ADMISSION_WALK_MODULES
                           and rel.parts not in ADMISSION_WALK_HOME)
        cdv_call_allowed = rel.parts in ACCUMULATE_CDV_DEF
        is_signaling = rel.parts == ("src", "net", "signaling.cpp")
        is_reroute = rel.parts == ("src", "net", "reroute.cpp")
        is_cac_impl = rel.parts == ("src", "core", "switch_cac.cpp")
        is_cac_header = rel.parts == ("src", "core", "switch_cac.h")
        concurrency_allowed = rel.parts in CONCURRENCY_ALLOWED
        is_lock_wrapper = rel.parts == LOCK_WRAPPER_HOME
        current_function = ""
        # lock-order bookkeeping: the qualified name of the out-of-line
        # function being scanned (column-0 definitions only, so calls of
        # qualified names never masquerade as definitions) and how many
        # shard guards it has constructed so far.
        current_qualified = ""
        in_lockset = False
        shard_guard_count = 0
        # admission-walk delta bookkeeping: whether the function being
        # scanned has released and/or acquired a reservation, and
        # whether the pair has already been reported (once per
        # function — the line completing the pair is the finding).
        walk_fn = ""
        walk_released = walk_acquired = walk_pair_reported = False
        is_header = path.suffix == ".h"
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()

        if is_header and not any(
                ln.strip() == "#pragma once" for ln in lines):
            self.report(path, 1, "include-hygiene",
                        "header is missing #pragma once", "")

        self.check_guarded_by(path, lines)

        in_block = False
        for lineno, raw in enumerate(lines, start=1):
            code, comment_text, in_block = strip_comments_and_strings(
                raw, in_block)

            # Match includes against the raw line: the stripper blanks
            # string bodies, which would erase the include path itself.
            m = INCLUDE_RE.match(raw)
            if m:
                target = m.group(1)
                if target.startswith('"'):
                    inner = target.strip('"')
                    if ".." in inner.split("/"):
                        self.report(path, lineno, "include-hygiene",
                                    f'parent-relative include "{inner}"; use '
                                    "a src/-relative path", comment_text)
                    elif inner.split("/")[0] not in SRC_MODULES:
                        self.report(
                            path, lineno, "include-hygiene",
                            f'quoted include "{inner}" is not src/-relative '
                            f"(expected one of: {', '.join(SRC_MODULES)}/...); "
                            "system headers use <>", comment_text)

            if RAND_RE.search(code):
                self.report(path, lineno, "no-rand",
                            "rand()/srand() is not reproducible across "
                            "platforms; use util/xorshift.h", comment_text)

            if walk_restricted:
                if not cdv_call_allowed and ACCUMULATE_CDV_RE.search(code):
                    self.report(
                        path, lineno, "admission-walk",
                        "accumulate_cdv called outside PathEvaluator "
                        "(src/core/path_eval.*); take the accumulated CDV "
                        "from PathEvaluator::accumulated_cdv instead",
                        comment_text)
                if DEADLINE_CMP_RE.search(code):
                    self.report(
                        path, lineno, "admission-walk",
                        "deadline comparison outside PathEvaluator "
                        "(src/core/path_eval.*); use deadline_met / "
                        "deadline_rejection so the GuaranteeMode split "
                        "stays in one place", comment_text)
                if GUARANTEE_CMP_RE.search(code):
                    self.report(
                        path, lineno, "admission-walk",
                        "GuaranteeMode branch outside PathEvaluator "
                        "(src/core/path_eval.*); the advertised-vs-"
                        "computed split is PathEvaluator's to make",
                        comment_text)
                if code and not code[0].isspace() and "(" in code:
                    m = QUALIFIED_DEF_RE.search(code)
                    walk_fn = m.group(1) if m else ""
                    walk_released = walk_acquired = False
                    walk_pair_reported = False
                if RESERVATION_RELEASE_RE.search(code):
                    walk_released = True
                if RESERVATION_ACQUIRE_RE.search(code):
                    walk_acquired = True
                if (walk_released and walk_acquired
                        and not walk_pair_reported):
                    self.report(
                        path, lineno, "admission-walk",
                        "reservation release/acquire pair in '"
                        f"{walk_fn or '<file scope>'}' outside the "
                        "DeltaTransaction core (src/core/path_eval.*); "
                        "express the swap as a DeltaTransaction "
                        "(PathEvaluator::commit_delta_hops / "
                        "finalize_delta) so it stays make-before-break",
                        comment_text)
                    walk_pair_reported = True

            if not is_lock_wrapper:
                if code and not code[0].isspace() and "(" in code:
                    m = QUALIFIED_DEF_RE.search(code)
                    current_qualified = m.group(1) if m else ""
                    in_lockset = (
                        "ShardLockSet" in current_qualified.split("::"))
                    shard_guard_count = 0
                if STD_LOCK_VOCAB_RE.search(code):
                    self.report(
                        path, lineno, "lock-order",
                        "std:: lock vocabulary (std::lock / scoped_lock / "
                        "unique_lock / adopt_lock, ...) is invisible to the "
                        "clang thread-safety analysis; use the annotated "
                        "guards of util/thread_annotations.h", comment_text)
                if not in_lockset and RAW_LOCK_CALL_RE.search(code):
                    self.report(
                        path, lineno, "lock-order",
                        "raw .lock()/.unlock()/.try_lock() call outside "
                        "ConcurrentCac::ShardLockSet; locking goes through "
                        "the RAII guards of util/thread_annotations.h so "
                        "the analysis sees every transition", comment_text)
                if not in_lockset:
                    hits = len(SHARD_GUARD_RE.findall(code))
                    if hits:
                        shard_guard_count += hits
                        if shard_guard_count > 1:
                            self.report(
                                path, lineno, "lock-order",
                                "second shard-state guard constructed in '"
                                f"{current_qualified or '<file scope>'}'; "
                                "holding several shard locks must go "
                                "through ConcurrentCac::ShardLockSet "
                                "(canonical ascending order, audited by "
                                "util/lock_order.h)", comment_text)

            if not concurrency_allowed and CONCURRENCY_RE.search(code):
                self.report(
                    path, lineno, "concurrency-state",
                    "std:: threading primitive outside the dedicated "
                    "concurrency modules (util/thread_annotations.h, "
                    "core/concurrent_cac.*, net/admission_engine.*); "
                    "route cross-thread work through ConcurrentCac / "
                    "AdmissionEngine instead", comment_text)

            if is_signaling:
                m = SIGNALING_FUNC_RE.search(code)
                if m:
                    current_function = m.group(1)
                if (SIGNALING_MUTATION_RE.search(code)
                        and not current_function.startswith(
                            SIGNALING_HANDLER_PREFIXES)):
                    self.report(
                        path, lineno, "signaling-state",
                        "protocol state (in_flight_/outcomes_/releasing_) "
                        "mutated outside a SignalingEngine handler "
                        f"(currently in '{current_function or '<top level>'}'"
                        "); move the transition into initiate/release/"
                        "process_*/on_*", comment_text)

            if is_reroute:
                m = REROUTE_FUNC_RE.search(code)
                if m:
                    current_function = m.group(1)
                if (REROUTE_MUTATION_RE.search(code)
                        and not current_function.startswith(
                            REROUTE_HANDLER_PREFIXES)):
                    self.report(
                        path, lineno, "reroute-state",
                        "reroute state (down sets/pending_/decisions_/"
                        "degraded_/stats_) mutated outside a "
                        "RerouteCoordinator handler (currently in "
                        f"'{current_function or '<top level>'}'); move "
                        "the transition into on_*/attempt_*/advance_to/"
                        "quiesce", comment_text)

            if is_cac_impl:
                m = CAC_FUNC_RE.search(code)
                if m:
                    current_function = m.group(1)
                if (CAC_STATE_RE.search(code)
                        and not current_function.startswith(
                            CAC_ACCESSOR_PREFIXES)):
                    self.report(
                        path, lineno, "cac-cache-state",
                        "SwitchCac cache state (arrival_aggr_/*_cache_/"
                        "*_dirty_/live in-port lists/cell_trees_/"
                        "stream_arena_/lease_index_) "
                        "touched outside a cache-management member "
                        "(currently in "
                        f"'{current_function or '<top level>'}'); go "
                        "through ensure_* so dirty-tracking and tree/"
                        "aggregate coherence stay intact", comment_text)
            elif not is_cac_header and CAC_STATE_RE.search(code):
                self.report(
                    path, lineno, "cac-cache-state",
                    "SwitchCac cache state referenced outside "
                    "src/core/switch_cac.{h,cpp}; use the public "
                    "accessors (arrival_aggregate, computed_bound, ...)",
                    comment_text)

            if in_core:
                if NAKED_THROW_RE.search(code):
                    self.report(path, lineno, "naked-throw",
                                "precondition failures in src/core go "
                                "through RTCAC_REQUIRE (util/contract.h), "
                                "not naked throws", comment_text)
                if FLOAT_CMP_RE.search(code):
                    self.report(path, lineno, "float-compare",
                                "raw comparison against a floating-point "
                                "literal in an admission path; use "
                                "NumTraits<Num> (nearly_equal / nearly_leq)",
                                comment_text)

    def check_guarded_by(self, path: Path, lines: list[str]) -> None:
        """guarded-by: in a class that owns a mutex, every plain data
        member carries RTCAC_[PT_]GUARDED_BY or an explicit allow().

        A dedicated pass because the verdict is per-*class*, not
        per-line: the mutex member may be declared after the members it
        guards, so unannotated candidates are buffered until the class
        body closes and reported only if a mutex turned up.  Statements
        are joined until their `;` so multi-line declarations (member,
        annotation and semicolon on different lines) are judged whole.
        """
        in_block = False
        depth = 0
        # One entry per open class body: the brace depth of its member
        # level, whether a mutex member has been seen, and the buffered
        # unannotated candidates (line, member name, comment text).
        stack: list[dict] = []
        stmt = ""
        stmt_comment = ""
        stmt_line = 0
        for lineno, raw in enumerate(lines, start=1):
            code, comment_text, in_block = strip_comments_and_strings(
                raw, in_block)
            class_here = bool(CLASS_DEF_RE.match(code))
            at_member_level = (stack
                               and depth == stack[-1]["body_depth"]
                               and not class_here)
            if at_member_level:
                member_code = ACCESS_LABEL_RE.sub("", code)
                if member_code.strip():
                    if not stmt.strip():
                        stmt_line = lineno
                    stmt += " " + member_code
                if comment_text.strip():
                    stmt_comment += " " + comment_text
                if ";" in stmt:
                    self._judge_member(stack[-1], stmt, stmt_line,
                                       stmt_comment)
                    stmt, stmt_comment = "", ""
                elif "{" in stmt:  # inline function body opens
                    stmt, stmt_comment = "", ""
            if class_here:
                stack.append({"body_depth": depth + 1, "has_mutex": False,
                              "candidates": []})
                stmt, stmt_comment = "", ""
            depth += code.count("{") - code.count("}")
            while stack and depth < stack[-1]["body_depth"]:
                closed = stack.pop()
                if closed["has_mutex"]:
                    for mem_line, name, mem_comment in closed["candidates"]:
                        self.report(
                            path, mem_line, "guarded-by",
                            f"member '{name}' of a mutex-owning class has "
                            "no RTCAC_GUARDED_BY / RTCAC_PT_GUARDED_BY "
                            "annotation; name its lock, or justify the "
                            "escape with rtcac-lint: allow(guarded-by)",
                            mem_comment)
                stmt, stmt_comment = "", ""

    @staticmethod
    def _judge_member(cls_state: dict, stmt: str, lineno: int,
                      comment_text: str) -> None:
        s = stmt.strip()
        if not s:
            return
        if GUARDED_ANNOTATION_RE.search(s):
            return  # annotated — exactly what the rule wants
        if MUTEX_MEMBER_RE.search(s):
            cls_state["has_mutex"] = True
            return
        if "(" in s:
            return  # function declaration / deleted op / ctor
        if GUARDED_EXEMPT_RE.search(s) or GUARDED_SKIP_RE.search(s):
            return
        m = MEMBER_NAME_RE.search(s)
        if m:
            cls_state["candidates"].append((lineno, m.group(1),
                                            comment_text))

    def run(self, paths: list[Path]) -> int:
        for path in paths:
            self.lint_file(path)
        for path, lineno, rule, message in self.findings:
            rel = path.relative_to(self.root)
            # Compiler-style diagnostics: editors and CI problem
            # matchers parse these like gcc/clang output.
            print(f"{rel}:{lineno}: {rule}: {message}")
        if self.findings:
            print(f"rtcac_lint: {len(self.findings)} finding(s)",
                  file=sys.stderr)
            return 1
        return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: inferred)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="NAME", choices=RULES,
                        help="run only the named rule (repeatable; "
                             f"known: {', '.join(RULES)})")
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to lint (default: all of src/)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"rtcac_lint: {root} does not look like the rtcac repo "
              "(no src/)", file=sys.stderr)
        return 2

    if args.files:
        paths = [p.resolve() for p in args.files]
        for p in paths:
            if not p.is_file():
                print(f"rtcac_lint: no such file: {p}", file=sys.stderr)
                return 2
    else:
        paths = sorted(p for p in (root / "src").rglob("*")
                       if p.suffix in (".h", ".cpp") and p.is_file())

    return Linter(root, args.rules).run(paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
