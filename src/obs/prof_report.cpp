#include "obs/prof_report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <string_view>
#include <tuple>

#include "obs/prof.hpp"

namespace rbft::obs::prof {
namespace {

/// Value substring of `"key": <value>` in a single JSON line, or empty.
std::string_view field_value(std::string_view line, std::string_view key) {
    // Appended piecewise: GCC 12 at -O3 reports a false -Werror=restrict in
    // the inlined memcpy of `"\"" + std::string(key) + "\":"`.
    std::string needle;
    needle.reserve(key.size() + 3);
    needle.append("\"").append(key).append("\":");
    const auto pos = line.find(needle);
    if (pos == std::string_view::npos) return {};
    auto start = pos + needle.size();
    while (start < line.size() && line[start] == ' ') ++start;
    auto end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(start, end - start);
}

std::string_view strip_quotes(std::string_view v) {
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
        return v.substr(1, v.size() - 2);
    }
    return v;
}

std::int64_t to_i64(std::string_view v, std::int64_t fallback = 0) {
    std::int64_t out = fallback;
    if (v.empty()) return out;
    const bool neg = v.front() == '-';
    std::int64_t acc = 0;
    bool any = false;
    for (std::size_t i = neg ? 1 : 0; i < v.size(); ++i) {
        if (v[i] < '0' || v[i] > '9') break;
        acc = acc * 10 + (v[i] - '0');
        any = true;
    }
    if (any) out = neg ? -acc : acc;
    return out;
}

std::uint64_t to_u64(std::string_view v) {
    const std::int64_t i = to_i64(v, 0);
    return i < 0 ? 0 : static_cast<std::uint64_t>(i);
}

}  // namespace

std::vector<ReportZone> Report::zones_by_path() const {
    std::map<std::string, ReportZone> agg;
    for (const ReportZone& z : zones) {
        ReportZone& a = agg[z.path];
        a.path = z.path;
        a.calls += z.calls;
        a.self_ns += z.self_ns;
        a.total_ns += z.total_ns;
    }
    std::vector<ReportZone> out;
    out.reserve(agg.size());
    for (auto& [path, z] : agg) out.push_back(std::move(z));
    std::sort(out.begin(), out.end(), [](const ReportZone& a, const ReportZone& b) {
        return std::tuple(b.self_ns, b.calls, a.path) < std::tuple(a.self_ns, a.calls, b.path);
    });
    return out;
}

bool parse_profile_json(std::istream& in, Report& out) {
    // Zones appear twice in a full profile (deterministic calls, then wall
    // times); merge on {path, node, instance}.
    std::map<std::tuple<std::string, std::int64_t, std::int64_t>, std::size_t> zone_index;
    bool any = false;
    std::string line;
    while (std::getline(in, line)) {
        const std::string_view lv = line;
        if (const std::string_view path = field_value(lv, "path"); !path.empty()) {
            const std::string key_path(strip_quotes(path));
            const std::int64_t node = to_i64(field_value(lv, "node"), -1);
            const std::int64_t instance = to_i64(field_value(lv, "instance"), -1);
            auto [it, inserted] =
                zone_index.try_emplace(std::tuple(key_path, node, instance), out.zones.size());
            if (inserted) {
                out.zones.push_back(ReportZone{key_path, node, instance, 0, 0, 0});
            }
            ReportZone& z = out.zones[it->second];
            if (const auto v = field_value(lv, "calls"); !v.empty()) z.calls = to_u64(v);
            if (const auto v = field_value(lv, "self_ns"); !v.empty()) z.self_ns = to_u64(v);
            if (const auto v = field_value(lv, "total_ns"); !v.empty()) z.total_ns = to_u64(v);
            any = true;
        } else if (const std::string_view name = field_value(lv, "name"); !name.empty()) {
            const std::string_view value = field_value(lv, "value");
            if (value.empty()) continue;
            ReportCounter c;
            c.name = std::string(strip_quotes(name));
            c.node = to_i64(field_value(lv, "node"), -1);
            c.instance = to_i64(field_value(lv, "instance"), -1);
            c.value = to_u64(value);
            out.counters.push_back(std::move(c));
            any = true;
        }
    }
    return any;
}

Report report_from(const Profiler& profiler) {
    Report out;
    for (const auto& [key, stats] : profiler.zones()) {
        out.zones.push_back(ReportZone{
            key.path,
            key.node == kNoNode ? -1 : static_cast<std::int64_t>(key.node),
            key.instance == kNoInstance ? -1 : static_cast<std::int64_t>(key.instance),
            stats.calls, stats.wall_self_ns, stats.wall_total_ns});
    }
    for (const auto& [key, counter] : profiler.counters()) {
        out.counters.push_back(ReportCounter{
            key.name,
            key.node == kNoNode ? -1 : static_cast<std::int64_t>(key.node),
            key.instance == kNoInstance ? -1 : static_cast<std::int64_t>(key.instance),
            counter.value()});
    }
    return out;
}

void render_hotspots(std::ostream& out, const Report& report, std::size_t top_n) {
    const std::vector<ReportZone> by_path = report.zones_by_path();
    std::uint64_t total_self = 0;
    for (const ReportZone& z : by_path) total_self += z.self_ns;

    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-44s %12s %12s %12s %7s\n", "zone", "calls",
                  "self_ms", "total_ms", "self%");
    out << buf;
    std::size_t shown = 0;
    for (const ReportZone& z : by_path) {
        if (shown++ >= top_n) break;
        const double share = total_self > 0
                                 ? 100.0 * static_cast<double>(z.self_ns) /
                                       static_cast<double>(total_self)
                                 : 0.0;
        std::snprintf(buf, sizeof(buf), "%-44s %12llu %12.3f %12.3f %6.1f%%\n",
                      z.path.c_str(), static_cast<unsigned long long>(z.calls),
                      static_cast<double>(z.self_ns) / 1e6,
                      static_cast<double>(z.total_ns) / 1e6, share);
        out << buf;
    }
    if (by_path.size() > shown) {
        out << "... " << (by_path.size() - shown) << " more zone(s)\n";
    }
}

void render_counters(std::ostream& out, const Report& report) {
    // Aggregate over scopes, keyed by name.
    std::map<std::string, std::uint64_t> agg;
    for (const ReportCounter& c : report.counters) agg[c.name] += c.value;
    char buf[192];
    for (const auto& [name, value] : agg) {
        std::snprintf(buf, sizeof(buf), "%-44s %16llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        out << buf;
    }
}

void render_collapsed(std::ostream& out, const Report& report) {
    for (const ReportZone& z : report.zones_by_path()) {
        out << z.path << " " << z.self_ns << "\n";
    }
}

}  // namespace rbft::obs::prof
