// Source rules over src/: the three properties that no compiler flag, test
// or sanitizer checks for us.  Comments and string literals are blanked
// before any rule looks at a file, so prose and log text never trip one.
//
//  * Determinism.  Protocol-critical code (src/{bft,rbft,protocols,net,sim,
//    fault}) reads no host clock and no ambient randomness, and uses neither
//    std::hash nor a std::unordered_* container (det::map / det::set
//    iterate in key order).  src/runtime bridges to the machine clock on
//    purpose and is not gated.
//  * Quorum arithmetic.  src/{bft,rbft,protocols,runtime} spells no 3*f+1,
//    2*f+1, 2*f or f+1 by hand; the named helpers in common/types.hpp do.
//  * Layering.  A quoted include in src/<layer>/ names that layer or one it
//    may depend on in kLayerDeps below, so the include graph stays a DAG.
//
// The tree is read at run time from RBFT_SRC_DIR (a compile definition), so
// this test links nothing from src/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

/// The layering DAG: each layer of src/ and the layers it may include.
/// net on sim (the simulator transports wire messages); bft on net; rbft on
/// bft; protocols on rbft; workload/fault/attacks/runtime are harnesses over
/// the protocol stack; exp/check orchestrate everything.
const std::map<std::string, std::set<std::string>> kLayerDeps = {
    {"common", {}},
    {"crypto", {"common"}},
    {"obs", {"common"}},
    {"sim", {"common", "obs"}},
    {"net", {"common", "crypto", "obs", "sim"}},
    {"bft", {"common", "crypto", "obs", "sim", "net"}},
    {"rbft", {"common", "crypto", "obs", "sim", "net", "bft"}},
    {"protocols", {"common", "crypto", "obs", "sim", "net", "bft", "rbft"}},
    {"workload", {"common", "crypto", "obs", "sim", "net", "bft"}},
    {"fault", {"common", "crypto", "obs", "sim", "net", "bft", "rbft"}},
    {"attacks", {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload"}},
    {"runtime", {"common", "crypto", "obs", "sim", "net", "bft", "rbft"}},
    {"exp",
     {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload", "attacks",
      "fault"}},
    {"check",
     {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload", "attacks",
      "fault", "exp"}},
};

const std::set<std::string> kDeterminismLayers = {"bft", "rbft", "protocols", "net", "sim", "fault"};
const std::set<std::string> kQuorumLayers = {"bft", "rbft", "protocols", "runtime"};

/// Host clocks, ambient randomness and hash-ordered containers.
const std::regex kBannedIdent(
    R"(\b(system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|)"
    R"(timespec_get|localtime|gmtime|mktime|random_device|default_random_engine|)"
    R"(random_shuffle|rand|srand|rand_r|drand48|lrand48|)"
    R"(unordered_map|unordered_set|unordered_multimap|unordered_multiset)\b)"
    R"(|\bstd\s*::\s*hash\b)");
/// N*f+1 first, so its tail is not read again as f+1.
const std::regex kQuorumShape(
    R"(\b[23]\s*\*\s*f\s*\+\s*1\b|\bf\s*\*\s*[23]\s*\+\s*1\b|\b2\s*\*\s*f\b|\bf\s*\*\s*2\b)"
    R"(|\bf\s*\+\s*1\b)");
const std::regex kQuotedInclude(R"(^[ \t]*#[ \t]*include[ \t]*"([A-Za-z_]+)/)",
                                std::regex::multiline);
const std::regex kIncludePrefix(R"([ \t]*#[ \t]*include[ \t]*)");

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

/// `text` with every comment and string or character literal replaced by
/// spaces; newlines stay, so line numbers survive.  The header name of an
/// #include is not a literal and is kept.  A quote after a letter or digit
/// is a digit separator (1'000), not a character literal.
std::string blank_comments_and_literals(const std::string& text) {
    std::string out = text;
    auto blank = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to && k < out.size(); ++k) {
            if (out[k] != '\n') out[k] = ' ';
        }
    };
    std::size_t i = 0;
    while (i < text.size()) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        const char prev = i > 0 ? text[i - 1] : '\0';
        std::size_t end = i + 1;
        if (c == '/' && next == '/') {
            end = std::min(text.find('\n', i), text.size());
        } else if (c == '/' && next == '*') {
            end = text.find("*/", i + 2);
            end = end == std::string::npos ? text.size() : end + 2;
        } else if (c == 'R' && next == '"' && !ident_char(prev)) {
            const std::size_t open = text.find('(', i + 2);
            // Appended, not `")" + ... + "\""`: GCC 12 at -O3 reports a
            // false -Werror=restrict on that operator+ chain.
            std::string close = ")";
            close.append(text, i + 2, open - i - 2).append("\"");
            end = text.find(close, open);
            end = end == std::string::npos ? text.size() : end + close.size();
        } else if (c == '"' || (c == '\'' && !ident_char(prev))) {
            const std::size_t line = text.rfind('\n', i) + 1;  // npos + 1 == 0
            const bool header = c == '"' && std::regex_match(text.substr(line, i - line),
                                                             kIncludePrefix);
            while (end < text.size() && text[end] != c && text[end] != '\n') {
                end += text[end] == '\\' ? 2 : 1;
            }
            end = std::min(end + 1, text.size());
            if (header) {
                i = end;
                continue;
            }
        } else {
            ++i;
            continue;
        }
        blank(i, end);
        i = end;
    }
    return out;
}

/// Findings of every rule on one file of src/, named by its path relative
/// to src/ (its first component is its layer), as "path:line: message".
std::vector<std::string> check_file(const std::string& rel_path, const std::string& text) {
    const std::string layer = rel_path.substr(0, rel_path.find('/'));
    const std::string code = blank_comments_and_literals(text);
    std::vector<std::string> findings;
    // Calls on_match(match, the last non-blank character before it) and
    // records what it returns, when that is not empty.
    auto scan = [&](const std::regex& re, auto&& on_match) {
        for (std::sregex_iterator it(code.begin(), code.end(), re), done; it != done; ++it) {
            const auto pos = it->position();
            const std::size_t at = pos == 0 ? std::string::npos
                                            : code.find_last_not_of(" \t\n", pos - 1);
            const std::string what = on_match(*it, at == std::string::npos ? '\0' : code[at]);
            if (what.empty()) continue;
            const auto line = 1 + std::count(code.begin(), code.begin() + pos, '\n');
            findings.push_back(rel_path + ":" + std::to_string(line) + ": " + what);
        }
    };
    if (kDeterminismLayers.count(layer) != 0) {
        scan(kBannedIdent, [](const std::smatch& m, char prev) -> std::string {
            // x.rand and x->rand name a project member, not the C library.
            if (prev == '.' || prev == '>') return {};
            return "det: '" + m.str() +
                   "' is nondeterministic; use sim::Simulator::now(), common::Rng or det::map";
        });
    }
    if (kQuorumLayers.count(layer) != 0) {
        scan(kQuorumShape, [](const std::smatch& m, char prev) -> std::string {
            // In x * f + 1 the f + 1 is not the propagate quorum.
            if (prev == '*' && m.str()[0] == 'f' && m.str().find('*') == std::string::npos) return {};
            return "quorum: hand-spelled '" + m.str() + "'; use the helpers in common/types.hpp";
        });
    }
    if (const auto deps = kLayerDeps.find(layer); deps != kLayerDeps.end()) {
        scan(kQuotedInclude, [&](const std::smatch& m, char) -> std::string {
            const std::string target = m.str(1);
            if (target == layer || kLayerDeps.count(target) == 0 || deps->second.count(target) != 0) {
                return {};
            }
            return "layer: '" + layer + "' must not include layer '" + target + "' (kLayerDeps)";
        });
    }
    return findings;
}

TEST(SourceRules, SrcFollowsEveryRule) {
    const fs::path root = RBFT_SRC_DIR;
    std::vector<std::string> findings;
    std::size_t files = 0;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
        const std::string ext = entry.path().extension().string();
        if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
        const std::string rel = fs::relative(entry.path(), root).generic_string();
        EXPECT_EQ(kLayerDeps.count(rel.substr(0, rel.find('/'))), 1u)
            << rel << ": every directory of src/ is a layer with a row in kLayerDeps";
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        for (std::string& f : check_file(rel, text.str())) findings.push_back(std::move(f));
        ++files;
    }
    EXPECT_GT(files, 90u) << "walked " << root << " and found almost nothing";
    EXPECT_TRUE(findings.empty()) << ::testing::PrintToString(findings);
}

TEST(SourceRules, DeterminismFlagsPlantedSnippetOnly) {
    const std::vector<std::string> planted = check_file("bft/planted.cpp", R"(
        auto t = std::chrono::steady_clock::now();
        int r = rand();
        std::unordered_map<int, int> index;
        std::size_t h = std::hash<int>{}(7);
    )");
    ASSERT_EQ(planted.size(), 4u) << ::testing::PrintToString(planted);
    EXPECT_NE(planted[0].find("bft/planted.cpp:2: det: 'steady_clock'"), std::string::npos);
    EXPECT_TRUE(check_file("bft/clean.cpp", R"(
        // steady_clock, rand() and std::unordered_map in a comment are prose.
        const char* s = "rand() and std::hash";
        det::map<int, int> index;
        int r = rng.rand() + node->rand;
    )").empty());
    // src/runtime bridges to the machine clock and is not gated.
    EXPECT_TRUE(check_file("runtime/clock.cpp", "auto t = std::chrono::steady_clock::now();").empty());
}

TEST(SourceRules, QuorumFlagsPlantedSnippetOnly) {
    const std::vector<std::string> planted = check_file("rbft/planted.cpp", R"(
        n = 3 * f + 1; commit = 2*f + 1; prepare = f * 2; propagate = f + 1;
    )");
    ASSERT_EQ(planted.size(), 4u) << ::testing::PrintToString(planted);
    EXPECT_NE(planted[0].find("rbft/planted.cpp:2: quorum: hand-spelled '3 * f + 1'"), std::string::npos);
    EXPECT_TRUE(check_file("rbft/clean.cpp", R"(
        n = cluster_size(f);  // not 3*f+1 by hand
        x = buf + 1; y = f_ + 1; z = 3 * f; w = k * f + 1; s = "2*f+1";
    )").empty());
}

TEST(SourceRules, LayeringFlagsPlantedSnippetOnly) {
    const std::vector<std::string> planted = check_file("bft/planted.hpp", R"(#pragma once
#include "net/wire.hpp"
#include "rbft/node.hpp"
)");
    ASSERT_EQ(planted.size(), 1u) << ::testing::PrintToString(planted);
    EXPECT_NE(planted[0].find("bft/planted.hpp:3: layer: 'bft' must not include layer 'rbft'"), std::string::npos);
    EXPECT_TRUE(check_file("bft/clean.hpp", R"(#pragma once
#include <vector>
#include "bft/messages.hpp"
#include "net/wire.hpp"
// #include "rbft/node.hpp" in a comment is prose.
)").empty());
}

}  // namespace
