// rbft_lint — project-specific protocol-hygiene static analysis.
//
// A from-scratch token-level analyzer (no compiler dependency) enforcing
// the invariants the deterministic simulation and the wire format rely on:
//
//   det-wallclock            wall-clock time sources (system_clock,
//                            gettimeofday, ...) in protocol-critical code;
//                            simulated time must come from sim::Simulator.
//   det-random               ambient randomness (rand, std::random_device,
//                            raw engines) in protocol-critical code; all
//                            randomness must flow from the run's seed Rng.
//   det-stdhash              std::hash use in protocol-critical code —
//                            hash values (and hash-ordered containers) are
//                            not stable replay inputs.
//   det-unordered-iteration  range-for / begin() iteration over a variable
//                            declared std::unordered_{map,set,...} in
//                            protocol-critical code; iteration order is
//                            hash-dependent and breaks per-seed replay.
//                            Use det::map / det::set (src/common/det.hpp).
//   wire-field-drift         a data member of a message class (any class
//                            with both encode() and decode()) that is not
//                            referenced in both bodies: the wire format
//                            silently dropped or never restores the field.
//   det-global-singleton     a function-local `static` non-const object in
//                            instance-confined code (the protocol dirs
//                            plus src/{exp,common}): such a static is
//                            process-wide state shared by
//                            every simulation in the process, so parallel
//                            runs race on it and per-seed replay breaks.
//                            Thread per-run state through the Simulator /
//                            config instead (const, constexpr and constinit
//                            statics are immutable and exempt).
//
// The v2 flow-aware rules (lint/flow_rules.cpp) run on the statement/scope
// parse layer (lint/parse.hpp) instead of the raw token stream:
//
//   borrow-escape            a WireReader::view()-derived span (or any
//                            span-typed value: BytesView, string_view,
//                            std::span) stored into a data member, a member
//                            container, or a lambda capture — the view dies
//                            with the decode buffer, the store outlives it.
//   pool-retention           a raw pointer extracted from a pooled
//                            net::MessagePtr (.get()), or a raw Message*
//                            data member: the pool recycles the slot on
//                            final release, so unrefcounted retention reads
//                            poisoned memory.
//   scratch-aliasing         two WireWriter instances live over the same
//                            scratch buffer/hasher: the second encode
//                            clobbers the first, and the first writer's
//                            destructor truncates the second's output.
//   quorum-arith             hardcoded 3*f+1 / 2*f+1 / 2*f / f+1 integer
//                            arithmetic in quorum-bearing code
//                            (src/{bft,rbft,protocols,runtime}) instead of
//                            the named helpers in common/types.hpp (cluster_size,
//                            commit_quorum, prepare_quorum,
//                            propagate_quorum, redundant_instances).
//   runtime-lock-discipline  a variable annotated `// RBFT_GUARDED_BY(m)`
//                            accessed where no lock_guard/scoped_lock/
//                            unique_lock over `m` is in scope
//                            (src/{runtime,exp} — the layers that actually
//                            spawn threads).
//   layer-cycle              a quoted #include violating the layering DAG
//                            (common → crypto/obs → sim → net → bft → rbft
//                            → protocols → harness layers; see DESIGN.md
//                            "Layering contract").  Applies to every file
//                            with a recognizable src/<layer>/ path.
//
// Protocol-critical = any path under src/{bft,rbft,protocols,net,sim,fault}.
// The singleton rule additionally covers the experiment and common layers.
// Paths under src/runtime, the wall-clock boundary layer, are excluded from
// the determinism and singleton rules no matter what the other gates say —
// the real-socket runtime's whole job is reading the machine clock.  The
// memory-safety rules (borrow-escape, pool-retention, scratch-aliasing,
// over the protocol and threaded layers) deliberately still cover it: the
// runtime layer is exempt from determinism rules, not from lifetime
// discipline.  The wire rule applies to every analyzed file.  These path
// gates are constants in lint.cpp.
//
// Switch exhaustiveness is the compiler's job: the build enables
// -Wswitch-enum, so a switch over an enum must name every member even when
// it has a `default:` label.
//
// Suppression: a `// RBFT_LINT_ALLOW(rule[,rule...])` or
// `RBFT_LINT_ALLOW(*)` comment on the finding's line or the line above.
// Baselines: a finding whose stable key (rule|file|message — line numbers
// excluded so unrelated edits don't invalidate entries) appears in the
// baseline file is reported only with --no-baseline tooling; see
// tools/rbft_lint.cpp.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

namespace rbft::lint {

struct Finding {
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;

    /// Line-independent identity used for baseline matching.
    [[nodiscard]] std::string key() const { return rule + "|" + file + "|" + message; }
};

struct SourceFile {
    std::string path;
    std::string text;
};

struct Options {
    /// Treat every input as protocol-critical (the fixture tests' seam; the
    /// src/runtime exemption still applies).
    bool all_protocol_critical = false;
};

/// Runs every rule over the file set.  Cross-file by design: container
/// declarations in headers inform iteration checks in .cpp files, and
/// out-of-line encode/decode bodies are matched to their class.  Findings
/// are sorted by (file, line, rule) and already have RBFT_LINT_ALLOW
/// suppressions applied.
[[nodiscard]] std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                                           const Options& options);

/// Deterministic JSON rendering of the findings (array of objects).
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 rendering: one run, every rule in the driver's rule table,
/// findings as `error`-level results.  Deterministic byte-for-byte for a
/// given finding list, so CI uploads are diff-stable.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

/// Baseline files: one Finding::key() per line, '#' comments allowed.
[[nodiscard]] std::set<std::string> read_baseline(std::istream& in);
void write_baseline(std::ostream& out, const std::vector<Finding>& findings);

/// Drops findings whose key appears in `baseline`.
[[nodiscard]] std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                                  const std::set<std::string>& baseline);

}  // namespace rbft::lint
