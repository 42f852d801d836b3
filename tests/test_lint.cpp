// rbft_lint analyzer tests: each fixture under tests/lint_fixtures/ plants
// exactly the violations its name says, and the clean fixture none.  The
// fixtures are analyzer *input*, never compiled into the build.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lexer.hpp"
#include "lint/lint.hpp"

namespace lint = rbft::lint;

namespace {

lint::SourceFile load_fixture(const std::string& name) {
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return {path, text.str()};
}

std::vector<lint::Finding> analyze_fixture(const std::string& name) {
    lint::Options options;
    options.all_protocol_critical = true;  // fixtures live outside src/bft etc.
    return lint::analyze({load_fixture(name)}, options);
}

int count_rule(const std::vector<lint::Finding>& findings, const std::string& rule) {
    int n = 0;
    for (const auto& f : findings) {
        if (f.rule == rule) ++n;
    }
    return n;
}

TEST(Lexer, TokenizesPastTrapsThatBreakNaiveScanners) {
    const auto toks = lint::tokenize(
        "// rand() in a comment\n"
        "const char* s = \"rand()\";\n"
        "auto r = R\"x(rand( )x\";\n"
        "#define rand broken\\\n  continued\n"
        "int x = a::b;\n");
    int rand_idents = 0;
    for (const auto& t : toks) {
        if (t.kind == lint::TokKind::kIdentifier && t.text == "rand") ++rand_idents;
    }
    EXPECT_EQ(rand_idents, 0) << "rand leaked out of comment/string/raw-string/preprocessor";
    bool scope = false;
    for (const auto& t : toks) {
        if (t.kind == lint::TokKind::kPunct && t.text == "::") scope = true;
    }
    EXPECT_TRUE(scope) << ":: should be one token";
}

TEST(LintFixtures, UnorderedIterationFlagsRangeForAndBegin) {
    const auto findings = analyze_fixture("unordered_iteration.cpp");
    EXPECT_EQ(count_rule(findings, "det-unordered-iteration"), 2)
        << lint::to_json(findings);
    // The count()-only lookup must not be flagged.
    EXPECT_EQ(findings.size(), 2u) << lint::to_json(findings);
}

TEST(LintFixtures, WallclockFlagged) {
    const auto findings = analyze_fixture("wallclock.cpp");
    EXPECT_EQ(count_rule(findings, "det-wallclock"), 1) << lint::to_json(findings);
}

TEST(LintFixtures, RandomSourcesFlagged) {
    const auto findings = analyze_fixture("random.cpp");
    EXPECT_GE(count_rule(findings, "det-random"), 2) << lint::to_json(findings);
}

TEST(LintFixtures, StdHashFlagged) {
    const auto findings = analyze_fixture("stdhash.cpp");
    EXPECT_EQ(count_rule(findings, "det-stdhash"), 1) << lint::to_json(findings);
}

TEST(LintFixtures, WireDriftFlagsFieldMissingFromDecode) {
    const auto findings = analyze_fixture("wire_drift.cpp");
    ASSERT_EQ(count_rule(findings, "wire-field-drift"), 1) << lint::to_json(findings);
    for (const auto& f : findings) {
        if (f.rule != "wire-field-drift") continue;
        EXPECT_NE(f.message.find("DriftMsg::flags"), std::string::npos) << f.message;
        EXPECT_NE(f.message.find("decode()"), std::string::npos) << f.message;
    }
}

TEST(LintFixtures, LocalStaticsFlaggedUnlessImmutable) {
    const auto findings = analyze_fixture("local_static.cpp");
    EXPECT_EQ(count_rule(findings, "det-global-singleton"), 3) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 3u) << lint::to_json(findings);
    bool saw_logger = false;
    bool saw_rows = false;
    bool saw_calls = false;
    for (const auto& f : findings) {
        saw_logger |= f.message.find("'logger'") != std::string::npos;
        saw_rows |= f.message.find("'r'") != std::string::npos;
        saw_calls |= f.message.find("'calls'") != std::string::npos;
    }
    EXPECT_TRUE(saw_logger && saw_rows && saw_calls) << lint::to_json(findings);
}

TEST(LintFixtures, SingletonDirGateCoversExpButNotTools) {
    // The singleton rule reaches the experiment layer (which the determinism
    // rules don't cover) but still skips tool code.
    lint::Options options;  // default dirs, all_protocol_critical off
    const char* body =
        "int& counter() {\n"
        "    static int n = 0;\n"
        "    return n;\n"
        "}\n";
    const lint::SourceFile exp_file{"src/exp/sweep_extra.cpp", body};
    const lint::SourceFile tool_file{"tools/plot_helper.cpp", body};
    const auto findings = lint::analyze({exp_file, tool_file}, options);
    ASSERT_EQ(findings.size(), 1u) << lint::to_json(findings);
    EXPECT_EQ(findings[0].rule, "det-global-singleton");
    EXPECT_EQ(findings[0].file, "src/exp/sweep_extra.cpp");
}

TEST(LintFixtures, AllowCommentsSuppressBothForms) {
    const auto findings = analyze_fixture("suppressed.cpp");
    EXPECT_TRUE(findings.empty()) << lint::to_json(findings);
}

TEST(LintFixtures, CleanFixtureProducesNoFindings) {
    const auto findings = analyze_fixture("clean.cpp");
    EXPECT_TRUE(findings.empty()) << lint::to_json(findings);
}

TEST(LintFixtures, CrossFileDeclarationInformsIterationCheck) {
    // Declaration in one "header", iteration in another file: the unordered
    // index must span the file set.
    lint::Options options;
    options.all_protocol_critical = true;
    const lint::SourceFile header{
        "decl.hpp", "#include <unordered_map>\n"
                    "struct S { std::unordered_map<int, int> lookup_; };\n"};
    const lint::SourceFile user{
        "use.cpp", "#include \"decl.hpp\"\n"
                   "int f(const S& s) { int n = 0; for (auto& kv : s.lookup_) n += kv.second; "
                   "return n; }\n"};
    const auto findings = lint::analyze({header, user}, options);
    ASSERT_EQ(findings.size(), 1u) << lint::to_json(findings);
    EXPECT_EQ(findings[0].rule, "det-unordered-iteration");
    EXPECT_EQ(findings[0].file, "use.cpp");
}

TEST(LintFixtures, ProtocolDirGateLimitsDeterminismRules) {
    // The same violation outside a protocol-critical dir is not a finding
    // (the wire rule still applies everywhere).
    lint::Options options;  // default dirs, all_protocol_critical off
    const lint::SourceFile tool{"tools/bench_helper.cpp",
                                "#include <chrono>\n"
                                "auto t() { return std::chrono::system_clock::now(); }\n"};
    const lint::SourceFile proto{"src/bft/engine_extra.cpp",
                                 "#include <chrono>\n"
                                 "auto t() { return std::chrono::system_clock::now(); }\n"};
    const auto findings = lint::analyze({tool, proto}, options);
    ASSERT_EQ(findings.size(), 1u) << lint::to_json(findings);
    EXPECT_EQ(findings[0].file, "src/bft/engine_extra.cpp");
}

TEST(LintFixtures, ExemptDirOverridesEveryDeterminismGate) {
    // The runtime fixture plants a steady_clock read and a random_device
    // draw.  Under a src/runtime/ path both determinism rules stay silent —
    // even with all_protocol_critical, the strongest gate — because
    // bridging sim-time to the machine clock is that layer's entire job.
    const lint::SourceFile fixture = load_fixture("runtime_wallclock.cpp");
    lint::Options options;
    options.all_protocol_critical = true;
    const lint::SourceFile as_runtime{"src/runtime/clock_probe.cpp", fixture.text};
    const auto exempt = lint::analyze({as_runtime}, options);
    EXPECT_EQ(count_rule(exempt, "det-wallclock"), 0) << lint::to_json(exempt);
    EXPECT_EQ(count_rule(exempt, "det-random"), 0) << lint::to_json(exempt);
    // The identical text under a protocol dir is flagged as usual (default
    // gates, no all_protocol_critical needed).
    const lint::SourceFile as_protocol{"src/rbft/clock_probe.cpp", fixture.text};
    const auto flagged = lint::analyze({as_protocol}, lint::Options{});
    EXPECT_EQ(count_rule(flagged, "det-wallclock"), 1) << lint::to_json(flagged);
    EXPECT_GE(count_rule(flagged, "det-random"), 1) << lint::to_json(flagged);
}

TEST(LintFixtures, ExemptDirAlsoCoversSingletonRule) {
    lint::Options options;
    options.all_protocol_critical = true;
    const char* body =
        "int& counter() {\n"
        "    static int n = 0;\n"
        "    return n;\n"
        "}\n";
    const auto findings =
        lint::analyze({lint::SourceFile{"src/runtime/stats_probe.cpp", body}}, options);
    EXPECT_EQ(count_rule(findings, "det-global-singleton"), 0) << lint::to_json(findings);
}

TEST(LintBaseline, RoundTripSuppressesExactlyTheWrittenKeys) {
    const auto findings = analyze_fixture("random.cpp");
    ASSERT_FALSE(findings.empty());
    std::stringstream baseline;
    lint::write_baseline(baseline, findings);
    const auto keys = lint::read_baseline(baseline);
    EXPECT_EQ(keys.size(), findings.size());
    const auto remaining = lint::apply_baseline(findings, keys);
    EXPECT_TRUE(remaining.empty()) << lint::to_json(remaining);
    // A baseline for a different fixture suppresses nothing here.
    const auto other = analyze_fixture("wallclock.cpp");
    const auto still = lint::apply_baseline(other, keys);
    EXPECT_EQ(still.size(), other.size());
}

TEST(LintJson, EscapesAndStructure) {
    const std::vector<lint::Finding> findings = {
        {"det-random", "a\"b.cpp", 3, "line1\nline2"}};
    const std::string json = lint::to_json(findings);
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// v2 lexer edge cases.
// ---------------------------------------------------------------------------

TEST(Lexer, DigitSeparatorsStayInsideNumbers) {
    // If 1'000'000 split at the quotes, '000' would start a bogus character
    // literal and swallow the rest of the line.
    const auto toks = lint::tokenize("const long big = 1'000'000; int rand_after = 0;\n");
    bool saw_number = false;
    bool saw_after = false;
    int strings = 0;
    for (const auto& t : toks) {
        saw_number |= t.kind == lint::TokKind::kNumber && t.text == "1'000'000";
        saw_after |= t.kind == lint::TokKind::kIdentifier && t.text == "rand_after";
        strings += t.kind == lint::TokKind::kString ? 1 : 0;
    }
    EXPECT_TRUE(saw_number);
    EXPECT_TRUE(saw_after);
    EXPECT_EQ(strings, 0);
}

TEST(Lexer, RawStringPrefixesAndDelimiters) {
    const auto toks = lint::tokenize(
        "auto a = u8R\"eos(rand())eos\";\n"
        "auto b = LR\"(rand())\";\n"
        "auto c = FOOR\"(plain string, not raw)\";\n"
        "int LRESULT = 0; int R = LRESULT;\n");
    int rand_idents = 0;
    bool saw_lresult = false;
    bool saw_r_ident = false;
    for (const auto& t : toks) {
        rand_idents += t.kind == lint::TokKind::kIdentifier && t.text == "rand" ? 1 : 0;
        saw_lresult |= t.kind == lint::TokKind::kIdentifier && t.text == "LRESULT";
        saw_r_ident |= t.kind == lint::TokKind::kIdentifier && t.text == "R";
    }
    EXPECT_EQ(rand_idents, 0) << "rand leaked out of a prefixed raw string";
    EXPECT_TRUE(saw_lresult) << "LR prefix misread as the start of a raw string";
    EXPECT_TRUE(saw_r_ident) << "bare R identifier misread as a raw-string prefix";
}

TEST(Lexer, LineContinuationExtendsLineComments) {
    // A backslash-newline inside a // comment continues it onto the next
    // physical line; rand() there is still commentary.
    const auto toks = lint::tokenize("// trailing backslash \\\nrand();\nint after = 1;\n");
    int rand_idents = 0;
    int after_line = 0;
    for (const auto& t : toks) {
        rand_idents += t.kind == lint::TokKind::kIdentifier && t.text == "rand" ? 1 : 0;
        if (t.kind == lint::TokKind::kIdentifier && t.text == "after") after_line = t.line;
    }
    EXPECT_EQ(rand_idents, 0) << "continuation line leaked out of the comment";
    EXPECT_EQ(after_line, 3) << "line numbering lost across the continuation";
}

TEST(Lexer, PreprocessorTrailingCommentIsLexed) {
    // Suppressions on #include lines need the trailing comment to survive
    // the preprocessor skip.
    const auto toks = lint::tokenize(
        "#include \"net/wire.hpp\"  // RBFT_LINT_ALLOW(layer-cycle)\nint z = 0;\n");
    bool saw = false;
    int line = 0;
    for (const auto& t : toks) {
        if (t.kind == lint::TokKind::kComment &&
            t.text.find("RBFT_LINT_ALLOW") != std::string::npos) {
            saw = true;
            line = t.line;
        }
    }
    EXPECT_TRUE(saw) << "trailing comment swallowed by the preprocessor skip";
    EXPECT_EQ(line, 1);
}

// ---------------------------------------------------------------------------
// v2 flow-aware rules.
// ---------------------------------------------------------------------------

TEST(LintFixtures, BorrowEscapeFlagsMembersStoresAndCaptures) {
    const auto findings = analyze_fixture("borrow_escape.cpp");
    // Two span members, one member assignment, one container store, one
    // lambda capture; the transient locals and InstanceEngine::view() clean.
    EXPECT_EQ(count_rule(findings, "borrow-escape"), 5) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 5u) << lint::to_json(findings);
    bool saw_member = false;
    bool saw_capture = false;
    for (const auto& f : findings) {
        saw_member |= f.message.find("'payload_'") != std::string::npos;
        saw_capture |= f.message.find("lambda captures") != std::string::npos;
    }
    EXPECT_TRUE(saw_member && saw_capture) << lint::to_json(findings);
}

TEST(LintFixtures, PoolRetentionFlagsRawPointerEscapes) {
    const auto findings = analyze_fixture("pool_retention.cpp");
    EXPECT_EQ(count_rule(findings, "pool-retention"), 2) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 2u) << lint::to_json(findings);
}

TEST(LintFixtures, ScratchAliasingFlagsOverlappingWriters) {
    const auto findings = analyze_fixture("scratch_alias.cpp");
    ASSERT_EQ(count_rule(findings, "scratch-aliasing"), 1) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 1u) << lint::to_json(findings);
    EXPECT_NE(findings[0].message.find("'scratch'"), std::string::npos)
        << findings[0].message;
}

TEST(LintFixtures, QuorumArithFlagsHandSpelledThresholds) {
    const auto findings = analyze_fixture("quorum_arith.cpp");
    EXPECT_EQ(count_rule(findings, "quorum-arith"), 6) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 6u) << lint::to_json(findings);
    bool saw_cluster = false;
    bool saw_commit = false;
    bool saw_prepare = false;
    bool saw_propagate = false;
    bool saw_speculative = false;
    bool saw_merge = false;
    for (const auto& f : findings) {
        saw_cluster |= f.message.find("cluster_size(f)") != std::string::npos;
        saw_commit |= f.message.find("commit_quorum(f)") != std::string::npos;
        saw_prepare |= f.message.find("prepare_quorum(f)") != std::string::npos;
        saw_propagate |= f.message.find("propagate_quorum(f)") != std::string::npos;
        saw_speculative |= f.message.find("speculative_quorum(f)") != std::string::npos;
        saw_merge |= f.message.find("merge_width(f)") != std::string::npos;
    }
    EXPECT_TRUE(saw_cluster && saw_commit && saw_prepare && saw_propagate && saw_speculative &&
                saw_merge)
        << lint::to_json(findings);
}

TEST(LintFixtures, LockDisciplineFlagsUnguardedAccess) {
    const auto findings = analyze_fixture("lock_discipline.cpp");
    ASSERT_EQ(count_rule(findings, "runtime-lock-discipline"), 1) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 1u) << lint::to_json(findings);
    EXPECT_NE(findings[0].message.find("export_mutex_"), std::string::npos)
        << findings[0].message;
}

TEST(LintFixtures, LayerCycleFlagsUpwardIncludesUnderSrcPath) {
    const lint::SourceFile fixture = load_fixture("layer_cycle.cpp");
    lint::Options options;
    const auto findings = lint::analyze(
        {lint::SourceFile{"src/sim/event_probe.cpp", fixture.text}}, options);
    EXPECT_EQ(count_rule(findings, "layer-cycle"), 2) << lint::to_json(findings);
    EXPECT_EQ(findings.size(), 2u) << lint::to_json(findings);
    bool saw_net = false;
    bool saw_rbft = false;
    for (const auto& f : findings) {
        saw_net |= f.message.find("net/wire.hpp") != std::string::npos;
        saw_rbft |= f.message.find("rbft/node.hpp") != std::string::npos;
    }
    EXPECT_TRUE(saw_net && saw_rbft) << lint::to_json(findings);
    // Under its real tests/ path there is no recognizable layer: silent.
    const auto silent = lint::analyze({fixture}, options);
    EXPECT_EQ(count_rule(silent, "layer-cycle"), 0) << lint::to_json(silent);
}

TEST(LintFixtures, AllowOnIncludeLineSuppressesLayerCycle) {
    // Exercises the preprocessor trailing-comment fix end to end.
    lint::Options options;
    const lint::SourceFile f{
        "src/sim/probe.cpp",
        "#include \"net/wire.hpp\"  // RBFT_LINT_ALLOW(layer-cycle)\n"};
    EXPECT_TRUE(lint::analyze({f}, options).empty());
}

TEST(LintFixtures, MemoryRulesIgnoreExemptDirs) {
    // src/runtime/ is exempt from the determinism rules, not from lifetime
    // discipline: a borrowed-span member is flagged there too.
    lint::Options options;
    const char* body =
        "struct BytesView { const unsigned char* ptr = nullptr; };\n"
        "struct Cache { BytesView held_; };\n";
    const auto findings =
        lint::analyze({lint::SourceFile{"src/runtime/span_cache.cpp", body}}, options);
    EXPECT_EQ(count_rule(findings, "borrow-escape"), 1) << lint::to_json(findings);
}

TEST(LintSarif, StructureRulesAndEscapes) {
    const std::vector<lint::Finding> findings = {
        {"quorum-arith", "src/rbft/no\"de.hpp", 7, "use cluster_size(f)"}};
    const std::string sarif = lint::to_sarif(findings);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"quorum-arith\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
    EXPECT_NE(sarif.find("\\\""), std::string::npos) << "quote in uri not escaped";
    // The driver rule table lists every rule, found or not.
    EXPECT_NE(sarif.find("\"borrow-escape\""), std::string::npos);
    EXPECT_NE(sarif.find("\"det-wallclock\""), std::string::npos);
}

}  // namespace
