#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <map>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "lint/flow_rules.hpp"
#include "lint/lexer.hpp"
#include "lint/parse.hpp"

namespace rbft::lint {
namespace {

// ---------------------------------------------------------------------------
// Small token-stream helpers.
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the token after the matching closer, given `open` pointing at the
/// opener.  Understands nested (), [], {}.  Returns tokens.size() on overrun.
[[nodiscard]] std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                                        std::string_view opener, std::string_view closer) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (is_punct(toks[i], opener)) ++depth;
        else if (is_punct(toks[i], closer) && --depth == 0) return i + 1;
    }
    return toks.size();
}

/// Index of the token after a balanced template argument list; `open` points
/// at the '<'.  '>' preceded by '-' is an arrow, not a closer.  Bails out (and
/// returns `open`) if the angles never balance — the '<' was a comparison.
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (is_punct(t, "<")) {
            ++depth;
        } else if (is_punct(t, ">")) {
            if (i > 0 && is_punct(toks[i - 1], "-")) continue;  // '->'
            if (--depth == 0) return i + 1;
        } else if (is_punct(t, ";") || is_punct(t, "{")) {
            return open;  // ran off the declaration: not a template arg list
        }
    }
    return open;
}

// ---------------------------------------------------------------------------
// Suppressions: // RBFT_LINT_ALLOW(rule[,rule...]) or RBFT_LINT_ALLOW(*)
// on the finding's line or the line above.
// ---------------------------------------------------------------------------

struct Suppressions {
    // line -> rules allowed there ("*" allows everything).
    std::map<int, std::set<std::string>> by_line;

    [[nodiscard]] bool covers(int line, const std::string& rule) const {
        for (int probe : {line, line - 1}) {  // comment on the line or the line above
            auto it = by_line.find(probe);
            if (it == by_line.end()) continue;
            if (it->second.count("*") != 0 || it->second.count(rule) != 0) return true;
        }
        return false;
    }
};

[[nodiscard]] Suppressions collect_suppressions(const std::vector<Token>& all_tokens) {
    Suppressions sup;
    constexpr std::string_view kMarker = "RBFT_LINT_ALLOW(";
    for (const Token& t : all_tokens) {
        if (t.kind != TokKind::kComment) continue;
        const std::size_t at = t.text.find(kMarker);
        if (at == std::string::npos) continue;
        const std::size_t start = at + kMarker.size();
        const std::size_t end = t.text.find(')', start);
        if (end == std::string::npos) continue;
        std::string rule;
        auto flush = [&] {
            if (!rule.empty()) sup.by_line[t.line].insert(rule);
            rule.clear();
        };
        for (std::size_t i = start; i < end; ++i) {
            const char c = t.text[i];
            if (c == ',' ) flush();
            else if (c != ' ' && c != '\t') rule.push_back(c);
        }
        flush();
    }
    return sup;
}

// ---------------------------------------------------------------------------
// det-wallclock / det-random / det-stdhash: banned identifiers in
// protocol-critical code.
// ---------------------------------------------------------------------------

struct BannedIdent {
    std::string_view name;
    std::string_view rule;
    std::string_view why;
};

constexpr BannedIdent kBanned[] = {
    {"system_clock", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"steady_clock", "det-wallclock", "host clock; use sim::Simulator::now()"},
    {"high_resolution_clock", "det-wallclock", "host clock; use sim::Simulator::now()"},
    {"gettimeofday", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"clock_gettime", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"timespec_get", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"localtime", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"gmtime", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"mktime", "det-wallclock", "wall-clock time; use sim::Simulator::now()"},
    {"random_device", "det-random", "nondeterministic entropy; derive from the run seed"},
    {"default_random_engine", "det-random", "unseeded engine; use common::Rng"},
    {"random_shuffle", "det-random", "uses ambient randomness; use common::Rng"},
    {"rand", "det-random", "global C PRNG; use common::Rng"},
    {"srand", "det-random", "global C PRNG; use common::Rng"},
    {"rand_r", "det-random", "C PRNG; use common::Rng"},
    {"drand48", "det-random", "global C PRNG; use common::Rng"},
    {"lrand48", "det-random", "global C PRNG; use common::Rng"},
};

void check_banned_idents(const SourceFile& file, const std::vector<Token>& code,
                         std::vector<Finding>& out) {
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token& t = code[i];
        if (t.kind != TokKind::kIdentifier) continue;
        // Declarations named e.g. `rand` don't exist here; calls and type uses
        // do.  Skip member accesses (`x.rand`, `x->rand`) — those are project
        // symbols, not the banned global.
        if (i > 0 && (is_punct(code[i - 1], ".") ||
                      (is_punct(code[i - 1], ">") && i > 1 && is_punct(code[i - 2], "-")))) {
            continue;
        }
        for (const BannedIdent& b : kBanned) {
            if (t.text != b.name) continue;
            out.push_back({std::string(b.rule), file.path, t.line,
                           "'" + t.text + "': " + std::string(b.why)});
            break;
        }
        // std::hash — hash values are not stable replay inputs.
        if (t.text == "hash" && i >= 2 && is_punct(code[i - 1], "::") &&
            is_ident(code[i - 2], "std")) {
            out.push_back({"det-stdhash", file.path, t.line,
                           "'std::hash': hash values are not replay-stable; key on "
                           "ordered fields instead"});
        }
    }
}

// ---------------------------------------------------------------------------
// det-unordered-iteration.
//
// Pass 1 (all files): names declared with an unordered container type.
// Pass 2 (protocol-critical files): range-for over such a name, or an
// explicit .begin()/.cbegin()/... call on one.
// ---------------------------------------------------------------------------

constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

[[nodiscard]] bool is_unordered_type(const Token& t) {
    if (t.kind != TokKind::kIdentifier) return false;
    for (std::string_view u : kUnorderedTypes) {
        if (t.text == u) return true;
    }
    return false;
}

void collect_unordered_names(const std::vector<Token>& code, std::set<std::string>& names) {
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (!is_unordered_type(code[i])) continue;
        if (i + 1 >= code.size() || !is_punct(code[i + 1], "<")) continue;
        std::size_t j = skip_angles(code, i + 1);
        if (j == i + 1) continue;  // unbalanced: not a declaration
        // Skip declarator decorations between the type and the name.
        while (j < code.size() &&
               (is_punct(code[j], "&") || is_punct(code[j], "*") || is_ident(code[j], "const"))) {
            ++j;
        }
        if (j < code.size() && code[j].kind == TokKind::kIdentifier) {
            names.insert(code[j].text);
        }
    }
}

/// Last identifier of a token run — `node.peers_` and `peers_` both yield
/// `peers_`, so member and local iteration targets are matched alike.
[[nodiscard]] const Token* last_identifier(const std::vector<Token>& code, std::size_t first,
                                           std::size_t last) {
    const Token* found = nullptr;
    for (std::size_t i = first; i < last; ++i) {
        if (code[i].kind == TokKind::kIdentifier) found = &code[i];
    }
    return found;
}

void check_unordered_iteration(const SourceFile& file, const std::vector<Token>& code,
                               const std::set<std::string>& unordered_names,
                               std::vector<Finding>& out) {
    auto flag = [&](const Token& name) {
        out.push_back({"det-unordered-iteration", file.path, name.line,
                       "iteration over hash-ordered container '" + name.text +
                           "'; order is not replay-stable — use det::map/det::set"});
    };

    for (std::size_t i = 0; i < code.size(); ++i) {
        // Range-based for: for ( decl : expr ) — a ';' at depth 1 means a
        // classic for loop instead.
        if (is_ident(code[i], "for") && i + 1 < code.size() && is_punct(code[i + 1], "(")) {
            const std::size_t close = skip_balanced(code, i + 1, "(", ")");
            std::size_t colon = 0;
            bool classic = false;
            int depth = 0;
            for (std::size_t j = i + 1; j + 1 < close; ++j) {
                if (is_punct(code[j], "(")) ++depth;
                else if (is_punct(code[j], ")")) --depth;
                else if (depth == 1 && is_punct(code[j], ";")) classic = true;
                else if (depth == 1 && is_punct(code[j], ":") && colon == 0) colon = j;
            }
            if (!classic && colon != 0) {
                const Token* name = last_identifier(code, colon + 1, close - 1);
                if (name != nullptr && unordered_names.count(name->text) != 0) flag(*name);
            }
            continue;
        }

        // name.begin( / name->cbegin( etc.
        if (code[i].kind != TokKind::kIdentifier || unordered_names.count(code[i].text) == 0) {
            continue;
        }
        std::size_t j = i + 1;
        if (j < code.size() && is_punct(code[j], ".")) {
            ++j;
        } else if (j + 1 < code.size() && is_punct(code[j], "-") && is_punct(code[j + 1], ">")) {
            j += 2;
        } else {
            continue;
        }
        if (j + 1 < code.size() && code[j].kind == TokKind::kIdentifier &&
            (code[j].text == "begin" || code[j].text == "cbegin" || code[j].text == "rbegin" ||
             code[j].text == "crbegin") &&
            is_punct(code[j + 1], "(")) {
            flag(code[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// wire-field-drift.
//
// A "message class" is any struct/class that defines both encode() and
// decode() (inline or out of line).  Every data member must be referenced in
// both bodies, or the wire format has silently drifted from the struct.
// ---------------------------------------------------------------------------

struct MessageClass {
    std::string file;
    int line = 0;                     // class declaration line
    std::vector<std::string> fields;  // declaration order
    std::vector<Token> encode_body;
    std::vector<Token> decode_body;
    bool has_encode = false;
    bool has_decode = false;
};

/// Statement starters that never declare a data member.
[[nodiscard]] bool non_field_statement(const Token& t) {
    static constexpr std::string_view kStarters[] = {
        "using",  "friend", "static",  "typedef",   "template", "enum",     "struct",
        "class",  "union",  "public",  "private",   "protected", "operator", "constexpr",
        "inline", "virtual", "explicit"};
    if (t.kind != TokKind::kIdentifier) return false;
    for (std::string_view s : kStarters) {
        if (t.text == s) return true;
    }
    return false;
}

/// Extracts declarator names from one member statement: identifiers followed
/// (at top nesting level) by ';' '=' '[' '{' or ','.  Handles `T a, b;`,
/// array members and brace initializers; template args are skipped.
void field_names(const std::vector<Token>& stmt, std::vector<std::string>& out) {
    for (const Token& t : stmt) {
        if (is_punct(t, "(")) return;  // function declaration, not a field
        if (non_field_statement(t)) return;
    }
    int angle = 0;
    for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
        const Token& t = stmt[i];
        if (is_punct(t, "<")) ++angle;
        else if (is_punct(t, ">") && angle > 0 && !(i > 0 && is_punct(stmt[i - 1], "-"))) --angle;
        if (angle != 0 || t.kind != TokKind::kIdentifier) continue;
        const Token& next = stmt[i + 1];
        if (is_punct(next, ";") || is_punct(next, "=") || is_punct(next, "[") ||
            is_punct(next, "{") || is_punct(next, ",")) {
            out.push_back(t.text);
            if (is_punct(next, "=") || is_punct(next, "{") || is_punct(next, "[")) {
                // Initializer / extent follows; remaining identifiers belong
                // to it, except after a top-level ',' (multi-declarator).
                int guard = 0;
                for (std::size_t j = i + 1; j + 1 < stmt.size(); ++j) {
                    if (is_punct(stmt[j], "{") || is_punct(stmt[j], "[") ||
                        is_punct(stmt[j], "(")) {
                        ++guard;
                    } else if (is_punct(stmt[j], "}") || is_punct(stmt[j], "]") ||
                               is_punct(stmt[j], ")")) {
                        --guard;
                    } else if (guard == 0 && is_punct(stmt[j], ",")) {
                        i = j;  // resume scanning after the comma
                        break;
                    }
                    if (j + 2 == stmt.size()) i = j + 1;  // consumed the rest
                }
            }
        }
    }
}

/// Scans a class body (tokens between its braces) and fills `cls`.
void scan_class_body(const std::vector<Token>& code, std::size_t body_begin,
                     std::size_t body_end, MessageClass& cls) {
    std::vector<Token> stmt;
    for (std::size_t i = body_begin; i < body_end; ++i) {
        const Token& t = code[i];
        // Access labels reset the statement: `public :`.
        if (t.kind == TokKind::kIdentifier &&
            (t.text == "public" || t.text == "private" || t.text == "protected") &&
            i + 1 < body_end && is_punct(code[i + 1], ":")) {
            stmt.clear();
            ++i;
            continue;
        }
        if (is_punct(t, "{")) {
            // A braced region at member level: function body, nested type, or
            // a member's brace initializer.  Capture encode/decode bodies;
            // otherwise skip the braces.  Brace initializers (identifier
            // directly before '{' in a field-looking statement) stay part of
            // the statement so field_names sees them.
            const bool initializer = !stmt.empty() && stmt.back().kind == TokKind::kIdentifier &&
                                     !non_field_statement(stmt.front()) &&
                                     std::none_of(stmt.begin(), stmt.end(),
                                                  [](const Token& s) { return is_punct(s, "("); });
            const std::size_t after = skip_balanced(code, i, "{", "}");
            if (initializer) {
                for (std::size_t j = i; j < after && j < body_end; ++j) stmt.push_back(code[j]);
                i = std::min(after, body_end) - 1;
                continue;
            }
            // encode/decode recognition: last identifier before the parameter
            // list names the function.
            std::string fn;
            for (std::size_t j = 0; j + 1 < stmt.size(); ++j) {
                if (stmt[j].kind == TokKind::kIdentifier && is_punct(stmt[j + 1], "(")) {
                    fn = stmt[j].text;
                    break;
                }
            }
            std::vector<Token> body(code.begin() + static_cast<std::ptrdiff_t>(i + 1),
                                    code.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min(after - 1, body_end)));
            if (fn == "encode") {
                cls.has_encode = true;
                cls.encode_body = std::move(body);
            } else if (fn == "decode") {
                cls.has_decode = true;
                cls.decode_body = std::move(body);
            }
            stmt.clear();
            i = std::min(after, body_end) - 1;
            continue;
        }
        if (is_punct(t, ";")) {
            stmt.push_back(t);
            field_names(stmt, cls.fields);
            stmt.clear();
            continue;
        }
        stmt.push_back(t);
    }
}

void collect_message_classes(const SourceFile& file, const std::vector<Token>& code,
                             std::map<std::string, MessageClass>& classes) {
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
        if (!is_ident(code[i], "struct") && !is_ident(code[i], "class")) continue;
        if (code[i + 1].kind != TokKind::kIdentifier) continue;
        const std::string name = code[i + 1].text;
        // Find the opening brace; a ';' first means a forward declaration.
        std::size_t open = i + 2;
        while (open < code.size() && !is_punct(code[open], "{") && !is_punct(code[open], ";")) {
            ++open;
        }
        if (open >= code.size() || !is_punct(code[open], "{")) continue;
        const std::size_t after = skip_balanced(code, open, "{", "}");
        MessageClass cls;
        cls.file = file.path;
        cls.line = code[i].line;
        scan_class_body(code, open + 1, after - 1, cls);
        auto [it, inserted] = classes.emplace(name, std::move(cls));
        if (!inserted) {
            // Same class name seen again (another namespace): merge naively —
            // encode/decode presence wins, fields append.  Good enough for
            // this codebase, where message names are globally unique.
            MessageClass& prior = it->second;
            if (cls.has_encode && !prior.has_encode) {
                prior.has_encode = true;
                prior.encode_body = std::move(cls.encode_body);
            }
            if (cls.has_decode && !prior.has_decode) {
                prior.has_decode = true;
                prior.decode_body = std::move(cls.decode_body);
            }
        }
    }
}

void collect_out_of_line_bodies(const std::vector<Token>& code,
                                std::map<std::string, MessageClass>& classes) {
    for (std::size_t i = 0; i + 3 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdentifier || !is_punct(code[i + 1], "::")) continue;
        const Token& fn = code[i + 2];
        if (!is_ident(fn, "encode") && !is_ident(fn, "decode")) continue;
        if (!is_punct(code[i + 3], "(")) continue;
        auto it = classes.find(code[i].text);
        if (it == classes.end()) continue;
        std::size_t open = skip_balanced(code, i + 3, "(", ")");
        while (open < code.size() && !is_punct(code[open], "{") && !is_punct(code[open], ";")) {
            ++open;
        }
        if (open >= code.size() || !is_punct(code[open], "{")) continue;
        const std::size_t after = skip_balanced(code, open, "{", "}");
        std::vector<Token> body(code.begin() + static_cast<std::ptrdiff_t>(open + 1),
                                code.begin() + static_cast<std::ptrdiff_t>(after - 1));
        if (fn.text == "encode") {
            it->second.has_encode = true;
            it->second.encode_body = std::move(body);
        } else {
            it->second.has_decode = true;
            it->second.decode_body = std::move(body);
        }
    }
}

[[nodiscard]] bool body_mentions(const std::vector<Token>& body, const std::string& field) {
    for (const Token& t : body) {
        if (t.kind == TokKind::kIdentifier && t.text == field) return true;
    }
    return false;
}

void check_wire_drift(const std::map<std::string, MessageClass>& classes,
                      std::vector<Finding>& out) {
    for (const auto& [name, cls] : classes) {
        if (!cls.has_encode || !cls.has_decode) continue;
        for (const std::string& field : cls.fields) {
            const bool in_enc = body_mentions(cls.encode_body, field);
            const bool in_dec = body_mentions(cls.decode_body, field);
            if (in_enc && in_dec) continue;
            std::string where = (!in_enc && !in_dec) ? "encode() or decode()"
                                : !in_enc            ? "encode()"
                                                     : "decode()";
            out.push_back({"wire-field-drift", cls.file, cls.line,
                           name + "::" + field + " is never referenced in " + where +
                               "; the wire format has drifted from the struct"});
        }
    }
}

// ---------------------------------------------------------------------------
// det-global-singleton.
//
// A `static` non-const object declared inside a function body is state that
// outlives and spans every simulation run in the process: parallel runs race
// on it and same-seed replay stops being byte-identical.  The walk keeps a
// brace-scope stack — braces opened by namespace/type definitions (or a
// brace initializer, recognisable by a preceding top-level '=') stay
// "declaration" scope, every other brace is "code" scope — and flags any
// `static` seen in code scope whose declaration carries no const, constexpr
// or constinit.
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_type_keyword(const Token& t) {
    return is_ident(t, "struct") || is_ident(t, "class") || is_ident(t, "union") ||
           is_ident(t, "enum");
}

void check_local_statics(const SourceFile& file, const std::vector<Token>& code,
                         std::vector<Finding>& out) {
    enum class Scope { kDecl, kCode };  // kDecl = file/namespace/type body
    std::vector<Scope> stack;
    std::vector<const Token*> stmt;  // tokens since the last ';' '{' '}'
    auto current = [&] { return stack.empty() ? Scope::kDecl : stack.back(); };

    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token& t = code[i];
        if (is_punct(t, "{")) {
            Scope entered = Scope::kCode;  // default: a function/block body
            for (const Token* p : stmt) {
                if (is_type_keyword(*p) || is_ident(*p, "namespace")) {
                    entered = Scope::kDecl;  // type or namespace body
                    break;
                }
                if (current() == Scope::kDecl && is_punct(*p, "=")) {
                    entered = Scope::kDecl;  // brace initializer of a declaration
                    break;
                }
            }
            stack.push_back(entered);
            stmt.clear();
            continue;
        }
        if (is_punct(t, "}")) {
            if (!stack.empty()) stack.pop_back();
            stmt.clear();
            continue;
        }
        if (is_punct(t, ";")) {
            stmt.clear();
            continue;
        }
        stmt.push_back(&t);
        if (current() != Scope::kCode || !is_ident(t, "static")) continue;

        // Scan the declaration up to its first top-level terminator: const /
        // constexpr / constinit exempt it, and the last identifier seen names
        // the variable.  Template arguments are skipped so a `const` inside
        // `<...>` doesn't exempt a mutable container.
        bool immutable = false;
        const Token* name = nullptr;
        int angle = 0;
        for (std::size_t j = i + 1; j < code.size(); ++j) {
            const Token& d = code[j];
            if (is_punct(d, "<")) {
                ++angle;
            } else if (is_punct(d, ">") && angle > 0 && !is_punct(code[j - 1], "-")) {
                --angle;
                continue;
            }
            if (angle != 0) continue;
            if (is_punct(d, ";") || is_punct(d, "=") || is_punct(d, "{") || is_punct(d, "(")) {
                break;
            }
            if (is_ident(d, "const") || is_ident(d, "constexpr") || is_ident(d, "constinit")) {
                immutable = true;
            }
            if (d.kind == TokKind::kIdentifier) name = &d;
        }
        if (immutable || name == nullptr) continue;
        out.push_back({"det-global-singleton", file.path, t.line,
                       "function-local static '" + name->text +
                           "' is process-wide mutable state shared across runs; thread "
                           "per-run state through the Simulator/config instead"});
    }
}

/// Path-substring gates.  Protocol-critical code gets the determinism rules.
constexpr std::string_view kProtocolDirs[] = {"/bft/", "/rbft/", "/protocols/",
                                              "/net/", "/sim/",  "/fault/"};
/// det-global-singleton: the protocol dirs plus every layer a parallel
/// experiment run flows through.
constexpr std::string_view kSingletonDirs[] = {"/bft/", "/rbft/", "/protocols/", "/net/",
                                               "/sim/", "/fault/", "/exp/",      "/common/"};
/// quorum-arith: every layer that spells quorum thresholds.
constexpr std::string_view kQuorumDirs[] = {"/bft/", "/rbft/", "/protocols/", "/runtime/"};
/// runtime-lock-discipline: the layers that actually spawn threads (exp's
/// worker pool, the real-node runtime).  The memory-safety rules cover
/// these in addition to the protocol dirs.
constexpr std::string_view kThreadedDirs[] = {"/runtime/", "/exp/"};
/// Exempt from the determinism and singleton rules, overriding every other
/// gate (including all_protocol_critical): src/runtime is the one subsystem
/// whose job is bridging sim-time to the machine clock, so det-wallclock /
/// det-random would flag its entire purpose.  Protocol logic must never
/// move there — it hosts rbft::Node behind net::Fabric, it does not
/// implement it.
constexpr std::string_view kExemptDir = "/runtime/";

/// True when `path` lies under one of `dirs`, or when the fixture seam
/// treats every input as in scope.
[[nodiscard]] bool gated(const std::string& path, std::span<const std::string_view> dirs,
                         const Options& options) {
    return options.all_protocol_critical ||
           std::any_of(dirs.begin(), dirs.end(),
                       [&](std::string_view dir) { return path.find(dir) != std::string::npos; });
}

void json_escape(std::ostream& out, const std::string& s) {
    for (char c : s) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            default: out << c; break;
        }
    }
}

}  // namespace

std::vector<Finding> analyze(const std::vector<SourceFile>& files, const Options& options) {
    struct Lexed {
        const SourceFile* file = nullptr;
        std::vector<Token> all;
        std::vector<Token> code;
        Suppressions sup;
        FileAnalysis flow;  // parse layer + includes for the v2 rules
    };
    std::vector<Lexed> lexed(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        Lexed& lx = lexed[i];
        lx.file = &files[i];
        lx.all = tokenize(files[i].text);
        lx.code = code_tokens(lx.all);
        lx.sup = collect_suppressions(lx.all);
        lx.flow.parsed = parse(lx.code);
        lx.flow.includes = scan_includes(files[i].text);
    }

    // Cross-file indexes first: declarations in any file inform the checks
    // of every other.
    std::set<std::string> unordered_names;
    std::map<std::string, MessageClass> classes;
    for (const Lexed& lx : lexed) {
        collect_unordered_names(lx.code, unordered_names);
        collect_message_classes(*lx.file, lx.code, classes);
    }
    for (const Lexed& lx : lexed) {
        collect_out_of_line_bodies(lx.code, classes);
    }

    std::vector<Finding> findings;
    for (const Lexed& lx : lexed) {
        const std::string& path = lx.file->path;
        // The memory-safety rules deliberately ignore kExemptDir: the runtime
        // is exempt from determinism rules, not from lifetime discipline.
        const bool exempt = path.find(kExemptDir) != std::string::npos;
        if (!exempt && gated(path, kProtocolDirs, options)) {
            check_banned_idents(*lx.file, lx.code, findings);
            check_unordered_iteration(*lx.file, lx.code, unordered_names, findings);
        }
        if (!exempt && gated(path, kSingletonDirs, options)) {
            check_local_statics(*lx.file, lx.code, findings);
        }
        if (gated(path, kProtocolDirs, options) || gated(path, kThreadedDirs, options)) {
            check_borrow_escape(*lx.file, lx.flow, findings);
            check_pool_retention(*lx.file, lx.flow, findings);
            check_scratch_aliasing(*lx.file, lx.flow, findings);
        }
        if (gated(path, kQuorumDirs, options)) {
            check_quorum_arith(*lx.file, lx.flow, findings);
        }
        if (gated(path, kThreadedDirs, options)) {
            check_lock_discipline(*lx.file, lx.flow, lx.all, findings);
        }
        check_layer_cycle(*lx.file, lx.flow, findings);
    }
    check_wire_drift(classes, findings);

    // Apply suppressions (per owning file's comment index).
    std::map<std::string, const Suppressions*> sup_by_file;
    for (const Lexed& lx : lexed) sup_by_file[lx.file->path] = &lx.sup;
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding& f : findings) {
        auto it = sup_by_file.find(f.file);
        if (it != sup_by_file.end() && it->second->covers(f.line, f.rule)) continue;
        kept.push_back(std::move(f));
    }

    std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
    });
    return kept;
}

std::string to_json(const std::vector<Finding>& findings) {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        out << "  {\"rule\": \"";
        json_escape(out, f.rule);
        out << "\", \"file\": \"";
        json_escape(out, f.file);
        out << "\", \"line\": " << f.line << ", \"message\": \"";
        json_escape(out, f.message);
        out << "\"}" << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

std::string to_sarif(const std::vector<Finding>& findings) {
    // The driver's full rule table, stable across runs so SARIF consumers
    // can key on ruleId even when a rule has no findings this run.
    struct RuleDoc {
        std::string_view id;
        std::string_view text;
    };
    static constexpr std::array<RuleDoc, 12> kRules = {{
        {"det-wallclock", "Wall-clock time source in protocol-critical code."},
        {"det-random", "Ambient randomness in protocol-critical code."},
        {"det-stdhash", "std::hash use in protocol-critical code."},
        {"det-unordered-iteration", "Iteration over a hash-ordered container."},
        {"wire-field-drift", "Message field missing from encode()/decode()."},
        {"det-global-singleton", "Function-local static mutable object."},
        {"borrow-escape", "Borrowed span escapes the scope that owns its buffer."},
        {"pool-retention", "Raw pointer retained from a pooled MessagePtr."},
        {"scratch-aliasing", "Two live WireWriter encodes share one scratch buffer."},
        {"quorum-arith", "Hardcoded quorum arithmetic instead of named helpers."},
        {"runtime-lock-discipline", "Guarded state accessed without its lock."},
        {"layer-cycle", "Include violates the layering DAG."},
    }};

    std::ostringstream out;
    out << "{\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"rbft_lint\",\n"
        << "          \"rules\": [\n";
    for (std::size_t i = 0; i < kRules.size(); ++i) {
        out << "            {\"id\": \"" << kRules[i].id
            << "\", \"shortDescription\": {\"text\": \"" << kRules[i].text << "\"}}"
            << (i + 1 < kRules.size() ? "," : "") << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        out << "        {\"ruleId\": \"";
        json_escape(out, f.rule);
        out << "\", \"level\": \"error\", \"message\": {\"text\": \"";
        json_escape(out, f.message);
        out << "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
               "{\"uri\": \"";
        json_escape(out, f.file);
        out << "\"}, \"region\": {\"startLine\": " << (f.line > 0 ? f.line : 1)
            << "}}}]}" << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

std::set<std::string> read_baseline(std::istream& in) {
    std::set<std::string> keys;
    std::string line;
    while (std::getline(in, line)) {
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
        if (line.empty() || line.front() == '#') continue;
        keys.insert(line);
    }
    return keys;
}

void write_baseline(std::ostream& out, const std::vector<Finding>& findings) {
    out << "# rbft_lint baseline: one finding key per line (rule|file|message).\n"
        << "# Entries are grandfathered findings; shrink this file, never grow it.\n";
    std::set<std::string> keys;
    for (const Finding& f : findings) keys.insert(f.key());
    for (const std::string& k : keys) out << k << "\n";
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::set<std::string>& baseline) {
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding& f : findings) {
        if (baseline.count(f.key()) != 0) continue;
        kept.push_back(std::move(f));
    }
    return kept;
}

}  // namespace rbft::lint
