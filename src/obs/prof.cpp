#include "obs/prof.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace rbft::obs::prof {

std::uint64_t wall_now_ns() noexcept {
    // The one place in src/ allowed to read the host clock.  Profiling wants
    // real elapsed time (that is the point), but every consumer keeps these
    // numbers in a segregated "wall" block that no determinism check ever
    // byte-compares.  Everything else must use sim::Simulator::now().
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

std::uint64_t Profiler::counter_value(std::string_view name, std::uint32_t node,
                                      std::uint32_t instance) const {
    const auto it = counters_.find(MetricKey{std::string(name), node, instance});
    return it == counters_.end() ? 0 : it->second.value();
}

std::uint64_t Profiler::counter_sum(std::string_view name) const {
    std::uint64_t sum = 0;
    for (const auto& [key, counter] : counters_) {
        if (key.name == name) sum += counter.value();
    }
    return sum;
}

void Profiler::enter(std::string_view name, std::uint32_t node, std::uint32_t instance) {
    path_buf_.clear();
    if (!stack_.empty()) {
        path_buf_ = *stack_.back().path;
        path_buf_ += ';';
    }
    path_buf_ += name;

    auto it = zones_.find(PathRef{path_buf_, node, instance});
    if (it == zones_.end()) {
        it = zones_.emplace(ZoneKey{path_buf_, node, instance}, ZoneStats{}).first;
    }
    it->second.calls += 1;
    stack_.push_back(Open{&it->second, &it->first.path, wall_now_ns(), 0});
}

Profiler::ZoneHandle Profiler::root_zone(std::string_view name, std::uint32_t node,
                                         std::uint32_t instance) {
    auto it = zones_.find(PathRef{name, node, instance});
    if (it == zones_.end()) {
        it = zones_.emplace(ZoneKey{std::string(name), node, instance}, ZoneStats{}).first;
    }
    return ZoneHandle{&it->second, &it->first.path};
}

void Profiler::exit() {
    const Open frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t elapsed = wall_now_ns() - frame.start_ns;
    frame.stats->wall_total_ns += elapsed;
    frame.stats->wall_self_ns += elapsed - std::min(frame.child_ns, elapsed);
    if (!stack_.empty()) stack_.back().child_ns += elapsed;
}

std::map<std::string, ZoneAgg> Profiler::zones_by_path() const {
    std::map<std::string, ZoneAgg> agg;
    for (const auto& [key, stats] : zones_) {
        ZoneAgg& a = agg[key.path];
        a.calls += stats.calls;
        a.wall_self_ns += stats.wall_self_ns;
        a.wall_total_ns += stats.wall_total_ns;
    }
    return agg;
}

namespace {

void write_scoped(std::ostream& out, std::uint32_t node, std::uint32_t instance) {
    out << "\"node\": " << (node == kNoNode ? -1 : static_cast<std::int64_t>(node))
        << ", \"instance\": "
        << (instance == kNoInstance ? -1 : static_cast<std::int64_t>(instance));
}

}  // namespace

void Profiler::write_deterministic_json(std::ostream& out) const {
    out << "{\n";

    out << "\"counters\": [";
    bool first = true;
    for (const auto& [key, counter] : counters_) {
        out << (first ? "\n" : ",\n") << "  {\"name\": \"" << key.name << "\", ";
        write_scoped(out, key.node, key.instance);
        out << ", \"value\": " << counter.value() << "}";
        first = false;
    }
    out << "\n],\n";

    out << "\"zones\": [";
    first = true;
    for (const auto& [key, stats] : zones_) {
        out << (first ? "\n" : ",\n") << "  {\"path\": \"" << key.path << "\", ";
        write_scoped(out, key.node, key.instance);
        out << ", \"calls\": " << stats.calls << "}";
        first = false;
    }
    out << "\n]\n";

    out << "}\n";
}

void Profiler::write_profile_json(std::ostream& out) const {
    out << "{\n";
    out << "\"schema\": \"rbft-prof-v1\",\n";

    // Deterministic block: identical seeds must render this byte-identically.
    out << "\"deterministic\": ";
    write_deterministic_json(out);
    out << ",\n";

    // Wall block: host-timing, never byte-compared.
    out << "\"wall\": {\n";
    out << "\"zones\": [";
    bool first = true;
    for (const auto& [key, stats] : zones_) {
        out << (first ? "\n" : ",\n") << "  {\"path\": \"" << key.path << "\", ";
        write_scoped(out, key.node, key.instance);
        out << ", \"calls\": " << stats.calls << ", \"self_ns\": " << stats.wall_self_ns
            << ", \"total_ns\": " << stats.wall_total_ns << "}";
        first = false;
    }
    out << "\n]\n";
    out << "}\n";

    out << "}\n";
}

}  // namespace rbft::obs::prof
