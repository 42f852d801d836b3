#include "lint/flow_rules.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace rbft::lint {
namespace {

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokKind::kPunct && t.text == text;
}

/// True when the declared type's unqualified tail matches `name`:
/// "WireReader", "net::WireReader" and "rbft::net::WireReader" all match
/// "WireReader".  (The parse layer records types as written, qualifiers
/// intact.)
[[nodiscard]] bool type_is(const std::string& type, std::string_view name) {
    if (type == name) return true;
    if (type.size() > name.size() + 2 &&
        type.compare(type.size() - name.size(), name.size(), name) == 0 &&
        type.compare(type.size() - name.size() - 2, 2, "::") == 0) {
        return true;
    }
    return false;
}

[[nodiscard]] bool is_span_type(const std::string& type) {
    return type_is(type, "BytesView") || type_is(type, "string_view") ||
           type_is(type, "span");
}

[[nodiscard]] bool is_reader_type(const std::string& type) {
    return type_is(type, "WireReader");
}

[[nodiscard]] bool is_writer_type(const std::string& type) {
    return type_is(type, "WireWriter");
}

[[nodiscard]] bool is_message_ptr_type(const std::string& type) {
    return type_is(type, "MessagePtr");
}

/// Member-ish name: trailing-underscore convention, or resolves to a
/// recorded data member.
[[nodiscard]] bool member_ish(const ParsedFile& pf, const std::string& name,
                              std::size_t use_tok) {
    if (!name.empty() && name.back() == '_') return true;
    const VarDecl* d = pf.lookup(name, use_tok);
    return d != nullptr && d->is_member;
}

/// The identifier chain ending at token `i` (inclusive): walks back over
/// `.`, `->` and `::` links and returns the index of the chain's first
/// token.  `obj.field_` at `field_` yields the index of `obj`.
[[nodiscard]] std::size_t chain_begin(const std::vector<Token>& code, std::size_t i) {
    while (i >= 2) {
        if (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "::")) {
            if (code[i - 2].kind == TokKind::kIdentifier) { i -= 2; continue; }
        }
        if (i >= 3 && is_punct(code[i - 1], ">") && is_punct(code[i - 2], "-") &&
            code[i - 3].kind == TokKind::kIdentifier) {
            i -= 3;
            continue;
        }
        break;
    }
    return i;
}

/// Whether a `<base>.view(` / `<base>-><fn>(` call at method-name token `i`
/// has a base object whose declared type satisfies `pred`.  Returns the
/// base's decl (or nullptr when the base doesn't resolve).
[[nodiscard]] const VarDecl* resolve_method_base(const ParsedFile& pf, std::size_t i,
                                                 bool (*pred)(const std::string&)) {
    const std::vector<Token>& code = pf.code;
    std::size_t b = i;  // token index of the base identifier
    if (i >= 2 && is_punct(code[i - 1], ".") && code[i - 2].kind == TokKind::kIdentifier) {
        b = i - 2;
    } else if (i >= 3 && is_punct(code[i - 1], ">") && is_punct(code[i - 2], "-") &&
               code[i - 3].kind == TokKind::kIdentifier) {
        b = i - 3;
    } else {
        return nullptr;
    }
    const VarDecl* d = pf.lookup(code[b].text, i);
    if (d == nullptr || !pred(d->type)) return nullptr;
    return d;
}

// ---------------------------------------------------------------------------
// borrow-escape.
// ---------------------------------------------------------------------------

/// Container-mutation methods that take ownership of their argument's value
/// — storing a borrowed span through one of these extends its lifetime past
/// the statement.  (`assign` is deliberately absent: `owned.assign(v.begin(),
/// v.end())` is the sanctioned copy-the-bytes-out idiom.)
[[nodiscard]] bool is_store_method(const Token& t) {
    static constexpr std::string_view kStores[] = {"push_back", "emplace_back", "insert",
                                                   "emplace", "push"};
    if (t.kind != TokKind::kIdentifier) return false;
    return std::any_of(std::begin(kStores), std::end(kStores),
                       [&](std::string_view s) { return t.text == s; });
}

}  // namespace

void check_borrow_escape(const SourceFile& file, const FileAnalysis& fa,
                         std::vector<Finding>& out) {
    const ParsedFile& pf = fa.parsed;
    const std::vector<Token>& code = pf.code;

    // (a) Span-typed data members: the buffer they borrow must outlive the
    // whole object — almost always a bug outside the reader itself.
    for (const VarDecl& d : pf.decls) {
        if (d.is_member && is_span_type(d.type)) {
            out.push_back({"borrow-escape", file.path, d.line,
                           "span-typed data member '" + d.name + "' (" + d.type +
                               ") borrows a buffer it does not own; store owned bytes "
                               "or document the lifetime with RBFT_LINT_ALLOW"});
        }
    }

    // (b) Borrowed locals: span-typed locals, plus locals initialized from a
    // WireReader's view().
    std::vector<const VarDecl*> borrowed;
    for (const VarDecl& d : pf.decls) {
        if (d.is_member) continue;
        bool borrows = is_span_type(d.type);
        if (!borrows) {
            for (std::size_t i = d.init_begin; i < d.init_end && i < code.size(); ++i) {
                if (is_ident(code[i], "view") && i + 1 < code.size() &&
                    is_punct(code[i + 1], "(") &&
                    resolve_method_base(pf, i, &is_reader_type) != nullptr) {
                    borrows = true;
                    break;
                }
            }
        }
        if (borrows) borrowed.push_back(&d);
    }

    auto is_borrowed_name = [&](const Token& t, std::size_t i) -> const VarDecl* {
        if (t.kind != TokKind::kIdentifier) return nullptr;
        // `v.begin()`, `v.data()`, `v.size()`...: a member access on the view
        // passes a derived value — the element-copy idiom
        // (`buf.insert(buf.end(), v.begin(), v.end())`) — not the view
        // itself.  (A subview would slip through; storing whole views is the
        // bug class this rule is for.)
        if (i + 1 < code.size() &&
            (is_punct(code[i + 1], ".") || is_punct(code[i + 1], "-"))) {
            return nullptr;
        }
        for (const VarDecl* d : borrowed) {
            if (d->name == t.text && pf.lookup(t.text, i) == d) return d;
        }
        return nullptr;
    };

    // (c) Escapes: member assignment, container store, lambda capture.
    for (std::size_t i = 0; i < code.size(); ++i) {
        // Member assignment: `<member-ish> = ... borrowed ...;`
        if (is_punct(code[i], "=") && i > 0 && code[i - 1].kind == TokKind::kIdentifier &&
            (i + 1 >= code.size() || !is_punct(code[i + 1], "=")) &&
            !is_punct(code[i - 1], "=")) {
            const std::string& lhs = code[i - 1].text;
            const std::size_t cb = chain_begin(code, i - 1);
            const bool lhs_member = member_ish(pf, lhs, i) ||
                                    (cb < i - 1 && is_ident(code[cb], "this")) ||
                                    (cb < i - 1 && member_ish(pf, code[cb].text, i));
            if (!lhs_member) continue;
            for (std::size_t j = i + 1; j < code.size() && !is_punct(code[j], ";"); ++j) {
                const VarDecl* d = is_borrowed_name(code[j], j);
                if (d != nullptr) {
                    out.push_back({"borrow-escape", file.path, code[j].line,
                                   "borrowed span '" + d->name + "' assigned to member '" +
                                       lhs + "'; the view dies with its buffer — copy "
                                       "the bytes instead"});
                    break;
                }
                // Direct `reader.view()` on the RHS of a member assignment.
                if (is_ident(code[j], "view") && j + 1 < code.size() &&
                    is_punct(code[j + 1], "(") &&
                    resolve_method_base(pf, j, &is_reader_type) != nullptr) {
                    out.push_back({"borrow-escape", file.path, code[j].line,
                                   "WireReader::view() result assigned to member '" + lhs +
                                       "'; the view dies with the decode buffer — copy "
                                       "the bytes instead"});
                    break;
                }
            }
            continue;
        }

        // Container store: `<member-ish>.push_back(... borrowed ...)`.
        if (is_store_method(code[i]) && i + 1 < code.size() && is_punct(code[i + 1], "(") &&
            i >= 2 &&
            (is_punct(code[i - 1], ".") ||
             (i >= 3 && is_punct(code[i - 1], ">") && is_punct(code[i - 2], "-")))) {
            const std::size_t base = is_punct(code[i - 1], ".") ? i - 2 : i - 3;
            if (code[base].kind != TokKind::kIdentifier) continue;
            if (!member_ish(pf, code[base].text, i)) continue;
            int depth = 0;
            for (std::size_t j = i + 1; j < code.size(); ++j) {
                if (is_punct(code[j], "(")) ++depth;
                else if (is_punct(code[j], ")") && --depth == 0) break;
                const VarDecl* d = is_borrowed_name(code[j], j);
                const bool direct_view =
                    is_ident(code[j], "view") && j + 1 < code.size() &&
                    is_punct(code[j + 1], "(") &&
                    resolve_method_base(pf, j, &is_reader_type) != nullptr;
                if (d != nullptr || direct_view) {
                    const std::string what =
                        d != nullptr ? "borrowed span '" + d->name + "'"
                                     : std::string("WireReader::view() result");
                    out.push_back({"borrow-escape", file.path, code[j].line,
                                   what + " stored into member container '" +
                                       code[base].text +
                                       "'; the view dies with its buffer — copy the "
                                       "bytes instead"});
                    break;
                }
            }
            continue;
        }
    }

    // Lambda captures of borrowed locals.
    for (std::size_t s = 1; s < pf.scopes.size(); ++s) {
        const Scope& sc = pf.scopes[s];
        if (sc.kind != ScopeKind::kLambda) continue;
        for (const VarDecl* d : borrowed) {
            // The borrowed local must be visible where the lambda appears.
            if (d->name_tok >= sc.open) continue;
            const int at = pf.scope_at(sc.capture_begin);
            if (!pf.encloses(d->scope, at)) continue;
            bool captured = false;
            for (std::size_t k = sc.capture_begin + 1; k < sc.capture_end; ++k) {
                if (is_ident(code[k], d->name)) { captured = true; break; }
            }
            if (!captured && sc.capture_default) {
                for (std::size_t k = sc.open + 1; k < sc.close && k < code.size(); ++k) {
                    if (is_ident(code[k], d->name)) { captured = true; break; }
                }
            }
            if (captured) {
                out.push_back({"borrow-escape", file.path, code[sc.capture_begin].line,
                               "lambda captures borrowed span '" + d->name +
                                   "'; the view dies with its buffer — capture an "
                                   "owned copy instead"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pool-retention.
// ---------------------------------------------------------------------------

void check_pool_retention(const SourceFile& file, const FileAnalysis& fa,
                          std::vector<Finding>& out) {
    const ParsedFile& pf = fa.parsed;
    const std::vector<Token>& code = pf.code;

    // Raw Message* data members: a recycled slot with no refcount behind it.
    for (const VarDecl& d : pf.decls) {
        if (d.is_member && d.pointer &&
            (type_is(d.type, "Message") || is_message_ptr_type(d.type))) {
            out.push_back({"pool-retention", file.path, d.line,
                           "raw pooled-message pointer member '" + d.name +
                               "'; hold a net::MessagePtr so the slot cannot be "
                               "recycled underneath it"});
        }
    }

    // `ptr.get()` on a MessagePtr: the raw pointer outlives nothing — any
    // retention reads a recycled slot.
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (!is_ident(code[i], "get") || !is_punct(code[i + 1], "(")) continue;
        const VarDecl* base = resolve_method_base(pf, i, &is_message_ptr_type);
        if (base == nullptr) continue;
        out.push_back({"pool-retention", file.path, code[i].line,
                       "raw pointer extracted from pooled MessagePtr '" + base->name +
                           "'; pass the MessagePtr itself through the ownership seam"});
    }
}

// ---------------------------------------------------------------------------
// scratch-aliasing.
// ---------------------------------------------------------------------------

void check_scratch_aliasing(const SourceFile& file, const FileAnalysis& fa,
                            std::vector<Finding>& out) {
    const ParsedFile& pf = fa.parsed;
    const std::vector<Token>& code = pf.code;

    struct ScratchWriter {
        const VarDecl* decl;
        std::string scratch;  // the single-identifier constructor argument
    };
    std::vector<ScratchWriter> writers;
    for (const VarDecl& d : pf.decls) {
        if (!is_writer_type(d.type) || d.is_member) continue;
        // Single-identifier ctor arg == the reuse/sink modes; a default-
        // constructed writer owns its buffer and cannot alias.
        if (d.init_end != d.init_begin + 1) continue;
        const Token& arg = code[d.init_begin];
        if (arg.kind != TokKind::kIdentifier) continue;
        writers.push_back({&d, arg.text});
    }
    for (std::size_t a = 0; a < writers.size(); ++a) {
        for (std::size_t b = a + 1; b < writers.size(); ++b) {
            if (writers[a].scratch != writers[b].scratch) continue;
            const VarDecl& d1 = *writers[a].decl;
            const VarDecl& d2 = *writers[b].decl;
            // Overlapping lifetimes: the earlier writer's scope still open
            // where the later one is declared.
            if (!pf.encloses(d1.scope, d2.scope)) continue;
            // Distinct scratch objects that merely share a name don't alias:
            // both writers must resolve the name to the same declaration.
            const VarDecl* s1 = pf.lookup(writers[a].scratch, d1.name_tok);
            const VarDecl* s2 = pf.lookup(writers[b].scratch, d2.name_tok);
            if (s1 != s2) continue;
            out.push_back({"scratch-aliasing", file.path, d2.line,
                           "WireWriter '" + d2.name + "' reuses scratch '" +
                               writers[b].scratch + "' while '" + d1.name +
                               "' (line " + std::to_string(d1.line) +
                               ") is still live; the second encode clobbers the first"});
        }
    }
}

// ---------------------------------------------------------------------------
// quorum-arith.
// ---------------------------------------------------------------------------

void check_quorum_arith(const SourceFile& file, const FileAnalysis& fa,
                        std::vector<Finding>& out) {
    const ParsedFile& pf = fa.parsed;
    const std::vector<Token>& code = pf.code;
    std::set<std::size_t> consumed;

    auto num = [&](std::size_t i, std::string_view v) {
        return i < code.size() && code[i].kind == TokKind::kNumber && code[i].text == v;
    };
    auto is_f = [&](std::size_t i) { return i < code.size() && is_ident(code[i], "f"); };
    auto star = [&](std::size_t i) { return i < code.size() && is_punct(code[i], "*"); };
    auto plus = [&](std::size_t i) { return i < code.size() && is_punct(code[i], "+"); };
    auto flag = [&](std::size_t first, std::size_t count, std::string_view helper,
                    std::string_view shape) {
        for (std::size_t k = first; k < first + count; ++k) consumed.insert(k);
        out.push_back({"quorum-arith", file.path, code[first].line,
                       "hardcoded quorum arithmetic '" + std::string(shape) +
                           "'; use " + std::string(helper) + " (common/types.hpp)"});
    };

    for (std::size_t i = 0; i < code.size(); ++i) {
        if (consumed.count(i) != 0) continue;
        // N * f (+ 1) — numeric coefficient first.
        if ((num(i, "3") || num(i, "2")) && star(i + 1) && is_f(i + 2)) {
            const bool three = num(i, "3");
            if (plus(i + 3) && num(i + 4, "1")) {
                flag(i, 5,
                     three ? "cluster_size(f)" : "commit_quorum(f) or speculative_quorum(f)",
                     three ? "3*f+1" : "2*f+1");
            } else if (!three) {
                flag(i, 3, "prepare_quorum(f)", "2*f");
            }
            continue;
        }
        // f * N (+ 1) — coefficient second.
        if (is_f(i) && star(i + 1) && (num(i + 2, "3") || num(i + 2, "2"))) {
            const bool three = num(i + 2, "3");
            if (plus(i + 3) && num(i + 4, "1")) {
                flag(i, 5,
                     three ? "cluster_size(f)" : "commit_quorum(f) or speculative_quorum(f)",
                     three ? "f*3+1" : "f*2+1");
            } else if (!three) {
                flag(i, 3, "prepare_quorum(f)", "f*2");
            }
            continue;
        }
        // f + 1 — not part of a larger N*f+1 (those were consumed above).
        if (is_f(i) && plus(i + 1) && num(i + 2, "1") && !(i > 0 && star(i - 1))) {
            flag(i, 3, "propagate_quorum(f), redundant_instances(f) or merge_width(f)", "f+1");
            continue;
        }
    }
}

// ---------------------------------------------------------------------------
// runtime-lock-discipline.
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] bool is_lock_type(const std::string& type) {
    return type_is(type, "lock_guard") || type_is(type, "scoped_lock") ||
           type_is(type, "unique_lock") || type_is(type, "shared_lock");
}

}  // namespace

void check_lock_discipline(const SourceFile& file, const FileAnalysis& fa,
                           const std::vector<Token>& all_tokens, std::vector<Finding>& out) {
    const ParsedFile& pf = fa.parsed;
    const std::vector<Token>& code = pf.code;

    // Bind `// RBFT_GUARDED_BY(mutex)` comments to the declaration on the
    // same line or the line below.
    struct Guarded {
        const VarDecl* decl;
        std::string mutex;
    };
    std::vector<Guarded> guarded;
    constexpr std::string_view kMarker = "RBFT_GUARDED_BY(";
    for (const Token& t : all_tokens) {
        if (t.kind != TokKind::kComment) continue;
        const std::size_t at = t.text.find(kMarker);
        if (at == std::string::npos) continue;
        const std::size_t start = at + kMarker.size();
        const std::size_t end = t.text.find(')', start);
        if (end == std::string::npos) continue;
        std::string mutex = t.text.substr(start, end - start);
        for (const VarDecl& d : pf.decls) {
            if (d.line == t.line || d.line == t.line + 1) {
                guarded.push_back({&d, mutex});
                break;
            }
        }
    }
    if (guarded.empty()) return;

    // Locks: declarations of lock_guard-ish types whose ctor args name the
    // mutex.  A use of a guarded variable needs such a lock in an enclosing
    // scope, declared before the use.
    struct Lock {
        const VarDecl* decl;
        std::string mutex;  // last identifier of the ctor argument chain
    };
    std::vector<Lock> locks;
    for (const VarDecl& d : pf.decls) {
        if (!is_lock_type(d.type)) continue;
        std::string mutex;
        for (std::size_t i = d.init_begin; i < d.init_end && i < code.size(); ++i) {
            if (code[i].kind == TokKind::kIdentifier) mutex = code[i].text;
        }
        if (!mutex.empty()) locks.push_back({&d, mutex});
    }

    for (const Guarded& g : guarded) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (!is_ident(code[i], g.decl->name)) continue;
            if (i == g.decl->name_tok) continue;  // the declaration itself
            if (i >= g.decl->init_begin && i < g.decl->init_end) continue;
            // Member accesses `x.name` refer to some other object's field.
            if (i > 0 && (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "::"))) continue;
            if (i > 1 && is_punct(code[i - 1], ">") && is_punct(code[i - 2], "-")) continue;
            const int use_scope = pf.scope_at(i);
            // Uses outside any function body (e.g. the declaring class) are
            // declarations/defaults, not accesses.
            bool in_code = false;
            for (int s = use_scope; s >= 0; s = pf.scopes[static_cast<std::size_t>(s)].parent) {
                const ScopeKind k = pf.scopes[static_cast<std::size_t>(s)].kind;
                if (k == ScopeKind::kFunction || k == ScopeKind::kLambda) { in_code = true; break; }
            }
            if (!in_code) continue;
            bool held = false;
            for (const Lock& l : locks) {
                if (l.mutex != g.mutex) continue;
                if (l.decl->name_tok < i && pf.encloses(l.decl->scope, use_scope)) {
                    held = true;
                    break;
                }
            }
            if (!held) {
                out.push_back({"runtime-lock-discipline", file.path, code[i].line,
                               "'" + g.decl->name + "' (RBFT_GUARDED_BY(" + g.mutex +
                                   ")) accessed without holding '" + g.mutex +
                                   "'; take a std::lock_guard first"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// layer-cycle.
// ---------------------------------------------------------------------------

namespace {

/// The include-layering DAG: each layer may include itself and the listed
/// layers.  Mirrors the contract documented in DESIGN.md ("Layering
/// contract"): common is the root; crypto/obs sit on common; sim on obs;
/// net on sim (the simulator transports wire messages); bft on net; rbft on
/// bft; protocols on rbft; workload/fault/attacks/runtime are harnesses over
/// the protocol stack; exp/check orchestrate everything.
const std::map<std::string, std::set<std::string>, std::less<>>& layer_deps() {
    static const std::map<std::string, std::set<std::string>, std::less<>> kDeps = {
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
        {"attacks",
         {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload"}},
        {"runtime", {"common", "crypto", "obs", "sim", "net", "bft", "rbft"}},
        {"exp",
         {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload",
          "attacks", "fault"}},
        {"check",
         {"common", "crypto", "obs", "sim", "net", "bft", "rbft", "protocols", "workload",
          "attacks", "fault", "exp"}},
    };
    return kDeps;
}

/// The layer of a path: the segment after the last "src/", when that
/// segment is a known layer.  Empty string otherwise.
[[nodiscard]] std::string path_layer(const std::string& path) {
    const std::size_t at = path.rfind("src/");
    if (at == std::string::npos) return {};
    const std::size_t begin = at + 4;
    const std::size_t slash = path.find('/', begin);
    if (slash == std::string::npos) return {};
    std::string layer = path.substr(begin, slash - begin);
    return layer_deps().count(layer) != 0 ? layer : std::string{};
}

}  // namespace

void check_layer_cycle(const SourceFile& file, const FileAnalysis& fa,
                       std::vector<Finding>& out) {
    const std::string layer = path_layer(file.path);
    if (layer.empty()) return;  // tools/bench/tests may include anything
    const std::set<std::string>& allowed = layer_deps().at(layer);
    for (const IncludeDirective& inc : fa.includes) {
        if (inc.angled) continue;  // system/third-party
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;
        const std::string target = inc.path.substr(0, slash);
        if (layer_deps().count(target) == 0) continue;  // not a layer include
        if (target == layer || allowed.count(target) != 0) continue;
        out.push_back({"layer-cycle", file.path, inc.line,
                       "layer '" + layer + "' must not include '" + inc.path +
                           "' (layer '" + target +
                           "'): violates the layering DAG (see DESIGN.md, "
                           "\"Layering contract\")"});
    }
}

}  // namespace rbft::lint
