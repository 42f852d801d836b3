#include "runtime/config.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

namespace rbft::runtime {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.  Supports the full JSON
// grammar except \u escapes beyond ASCII (config files have no need).
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonPtr> array;
    std::map<std::string, JsonPtr> object;
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonPtr parse(std::string* error) {
        JsonPtr v = value();
        skip_ws();
        if (v != nullptr && at_ != text_.size()) fail("trailing characters after document");
        if (!error_.empty()) {
            if (error != nullptr) {
                std::ostringstream os;
                os << "JSON error at byte " << err_at_ << ": " << error_;
                *error = os.str();
            }
            return nullptr;
        }
        return v;
    }

private:
    void fail(const std::string& why) {
        if (error_.empty()) {
            error_ = why;
            err_at_ = at_;
        }
    }

    void skip_ws() {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' || text_[at_] == '\r')) {
            ++at_;
        }
    }

    [[nodiscard]] bool eat(char c) {
        skip_ws();
        if (at_ < text_.size() && text_[at_] == c) {
            ++at_;
            return true;
        }
        return false;
    }

    [[nodiscard]] bool literal(const char* word) {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(at_, len, word) == 0) {
            at_ += len;
            return true;
        }
        return false;
    }

    JsonPtr value() {
        skip_ws();
        if (at_ >= text_.size()) {
            fail("unexpected end of input");
            return nullptr;
        }
        const char c = text_[at_];
        auto v = std::make_shared<JsonValue>();
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') {
            v->kind = JsonValue::Kind::kString;
            if (!string_into(v->string)) return nullptr;
            return v;
        }
        if (c == 't') {
            if (!literal("true")) { fail("bad literal"); return nullptr; }
            v->kind = JsonValue::Kind::kBool;
            v->boolean = true;
            return v;
        }
        if (c == 'f') {
            if (!literal("false")) { fail("bad literal"); return nullptr; }
            v->kind = JsonValue::Kind::kBool;
            return v;
        }
        if (c == 'n') {
            if (!literal("null")) { fail("bad literal"); return nullptr; }
            return v;
        }
        return number();
    }

    JsonPtr number() {
        const std::size_t start = at_;
        if (at_ < text_.size() && text_[at_] == '-') ++at_;
        while (at_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[at_])) != 0 || text_[at_] == '.' ||
                text_[at_] == 'e' || text_[at_] == 'E' || text_[at_] == '+' || text_[at_] == '-')) {
            ++at_;
        }
        if (at_ == start) {
            fail("expected a value");
            return nullptr;
        }
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::kNumber;
        try {
            v->number = std::stod(text_.substr(start, at_ - start));
        } catch (...) {
            fail("malformed number");
            return nullptr;
        }
        return v;
    }

    bool string_into(std::string& out) {
        if (!eat('"')) {
            fail("expected '\"'");
            return false;
        }
        while (at_ < text_.size()) {
            const char c = text_[at_++];
            if (c == '"') return true;
            if (c == '\\') {
                if (at_ >= text_.size()) break;
                const char esc = text_[at_++];
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'n': out.push_back('\n'); break;
                    case 't': out.push_back('\t'); break;
                    case 'r': out.push_back('\r'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    default:
                        fail("unsupported escape");
                        return false;
                }
            } else {
                out.push_back(c);
            }
        }
        fail("unterminated string");
        return false;
    }

    JsonPtr array() {
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::kArray;
        (void)eat('[');
        if (eat(']')) return v;
        while (true) {
            JsonPtr elem = value();
            if (elem == nullptr) return nullptr;
            v->array.push_back(std::move(elem));
            if (eat(']')) return v;
            if (!eat(',')) {
                fail("expected ',' or ']'");
                return nullptr;
            }
        }
    }

    JsonPtr object() {
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::kObject;
        (void)eat('{');
        if (eat('}')) return v;
        while (true) {
            skip_ws();
            std::string key;
            if (!string_into(key)) return nullptr;
            if (!eat(':')) {
                fail("expected ':'");
                return nullptr;
            }
            JsonPtr val = value();
            if (val == nullptr) return nullptr;
            v->object[key] = std::move(val);
            if (eat('}')) return v;
            if (!eat(',')) {
                fail("expected ',' or '}'");
                return nullptr;
            }
        }
    }

    const std::string& text_;
    std::size_t at_ = 0;
    std::size_t err_at_ = 0;
    std::string error_;
};

[[nodiscard]] const JsonValue* get(const JsonValue& obj, const std::string& key) {
    auto it = obj.object.find(key);
    return it == obj.object.end() ? nullptr : it->second.get();
}

bool read_u64(const JsonValue& obj, const std::string& key, std::uint64_t& out, std::string& err) {
    const JsonValue* v = get(obj, key);
    if (v == nullptr) return true;  // optional: keep default
    if (v->kind != JsonValue::Kind::kNumber || v->number < 0) {
        err = "field '" + key + "' must be a non-negative number";
        return false;
    }
    out = static_cast<std::uint64_t>(v->number);
    return true;
}

}  // namespace

std::optional<ClusterSpec> parse_cluster_spec(const std::string& text, std::string* error) {
    auto set_error = [error](const std::string& why) {
        if (error != nullptr) *error = why;
    };

    std::string parse_err;
    JsonPtr root = JsonParser(text).parse(&parse_err);
    if (root == nullptr) {
        set_error(parse_err);
        return std::nullopt;
    }
    if (root->kind != JsonValue::Kind::kObject) {
        set_error("top-level value must be an object");
        return std::nullopt;
    }

    ClusterSpec spec;
    std::string err;
    std::uint64_t f = spec.f;
    std::uint64_t batch_max = spec.batch_max;
    std::uint64_t retry_ms = 40;
    if (!read_u64(*root, "f", f, err) || !read_u64(*root, "seed", spec.seed, err) ||
        !read_u64(*root, "batch_max", batch_max, err) ||
        !read_u64(*root, "checkpoint_interval", spec.checkpoint_interval, err) ||
        !read_u64(*root, "engine_retry_ms", retry_ms, err)) {
        set_error(err);
        return std::nullopt;
    }
    if (f > (kMaxNodes - 1) / 3) {
        set_error("f must be <= " + std::to_string((kMaxNodes - 1) / 3) + " (at most " +
                  std::to_string(kMaxNodes) + " nodes)");
        return std::nullopt;
    }
    spec.f = static_cast<std::uint32_t>(f);
    spec.batch_max = static_cast<std::uint32_t>(batch_max);
    spec.engine_retry_interval = milliseconds(static_cast<double>(retry_ms));

    if (const JsonValue* cm = get(*root, "cost_model"); cm != nullptr) {
        if (cm->kind != JsonValue::Kind::kString ||
            (cm->string != "zero" && cm->string != "paper")) {
            set_error("field 'cost_model' must be \"zero\" or \"paper\"");
            return std::nullopt;
        }
        spec.cost_model = cm->string;
    }

    const JsonValue* nodes = get(*root, "nodes");
    if (nodes == nullptr || nodes->kind != JsonValue::Kind::kArray) {
        set_error("field 'nodes' must be an array of {host, port}");
        return std::nullopt;
    }
    for (const JsonPtr& entry : nodes->array) {
        if (entry->kind != JsonValue::Kind::kObject) {
            set_error("each nodes[] entry must be an object");
            return std::nullopt;
        }
        NodeAddress addr;
        if (const JsonValue* host = get(*entry, "host"); host != nullptr) {
            if (host->kind != JsonValue::Kind::kString) {
                set_error("nodes[].host must be a string");
                return std::nullopt;
            }
            addr.host = host->string;
        }
        std::uint64_t port = 0;
        if (!read_u64(*entry, "port", port, err) || port == 0 || port > 65535) {
            set_error(err.empty() ? "nodes[].port must be in 1..65535" : err);
            return std::nullopt;
        }
        addr.port = static_cast<std::uint16_t>(port);
        spec.nodes.push_back(std::move(addr));
    }

    if (spec.f == 0) {
        set_error("f must be >= 1");
        return std::nullopt;
    }
    if (spec.nodes.size() != spec.n()) {
        std::ostringstream os;
        os << "nodes[] has " << spec.nodes.size() << " entries; f=" << spec.f << " requires "
           << spec.n();
        set_error(os.str());
        return std::nullopt;
    }
    return spec;
}

std::optional<ClusterSpec> load_cluster_spec(const std::string& path, std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_cluster_spec(buf.str(), error);
}

}  // namespace rbft::runtime
