#include "obs/recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace rbft::obs {
namespace {

/// Fixed, locale-independent double rendering so exports are bit-identical
/// across same-seed runs.
std::string fmt_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void write_key(std::ostream& out, const MetricKey& key) {
    out << "\"name\": \"" << key.name << "\", \"node\": "
        << (key.node == kNoNode ? -1 : static_cast<std::int64_t>(key.node))
        << ", \"instance\": "
        << (key.instance == kNoInstance ? -1 : static_cast<std::int64_t>(key.instance));
}

}  // namespace

void Recorder::write_metrics_json(std::ostream& out) const {
    out << "{\n";

    out << "\"counters\": [";
    bool first = true;
    for (const auto& [key, counter] : metrics_.counters()) {
        out << (first ? "\n" : ",\n") << "  {";
        write_key(out, key);
        out << ", \"value\": " << counter.value() << "}";
        first = false;
    }
    out << "\n],\n";

    out << "\"gauges\": [";
    first = true;
    for (const auto& [key, gauge] : metrics_.gauges()) {
        out << (first ? "\n" : ",\n") << "  {";
        write_key(out, key);
        out << ", \"value\": " << fmt_double(gauge.value()) << "}";
        first = false;
    }
    out << "\n],\n";

    out << "\"histograms\": [";
    first = true;
    for (const auto& [key, hist] : metrics_.histograms()) {
        const Summary& s = hist.summary();
        out << (first ? "\n" : ",\n") << "  {";
        write_key(out, key);
        out << ", \"count\": " << s.count() << ", \"mean\": " << fmt_double(s.mean())
            << ", \"min\": " << fmt_double(s.min()) << ", \"max\": " << fmt_double(s.max())
            << ", \"p50\": " << fmt_double(hist.quantile(0.50))
            << ", \"p90\": " << fmt_double(hist.quantile(0.90))
            << ", \"p99\": " << fmt_double(hist.quantile(0.99)) << "}";
        first = false;
    }
    out << "\n],\n";

    out << "\"series\": [";
    first = true;
    for (const auto& [key, series] : metrics_.all_series()) {
        out << (first ? "\n" : ",\n") << "  {";
        write_key(out, key);
        out << ", \"points\": [";
        bool first_point = true;
        for (const auto& [x, y] : series.points) {
            out << (first_point ? "" : ", ") << "[" << fmt_double(x) << ", " << fmt_double(y)
                << "]";
            first_point = false;
        }
        out << "]}";
        first = false;
    }
    out << "\n]\n";

    out << "}\n";
}

void Recorder::write_trace_json(std::ostream& out) const {
    out << "{\n";
    out << "\"recorded\": " << trace_.recorded() << ",\n";
    out << "\"dropped\": " << trace_.dropped() << ",\n";
    out << "\"events\": [";
    bool first = true;
    for (const TraceEvent& e : trace_.snapshot()) {
        out << (first ? "\n" : ",\n") << "  {\"t_ns\": " << e.at.ns << ", \"type\": \""
            << event_name(e.type) << "\", \"node\": "
            << (e.node == kNoNode ? -1 : static_cast<std::int64_t>(e.node)) << ", \"instance\": "
            << (e.instance == kNoInstance ? -1 : static_cast<std::int64_t>(e.instance))
            << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"x\": " << fmt_double(e.x) << "}";
        first = false;
    }
    out << "\n]\n";
    out << "}\n";
}

bool Recorder::export_to_dir(const std::string& dir) const {
    // A file counts as written only if it opened and every byte reached it.
    const auto write_file = [&dir](const char* name, const auto& write) {
        std::ofstream out(dir + "/" + name);
        if (!out) return false;
        write(out);
        out.close();
        return !out.fail();
    };
    return write_file("metrics.json", [this](std::ostream& out) { write_metrics_json(out); }) &&
           (!tracing_ ||
            write_file("trace.json", [this](std::ostream& out) { write_trace_json(out); })) &&
           (!profiler_ || write_file("profile.json", [this](std::ostream& out) {
                profiler_->write_profile_json(out);
            }));
}

const char* export_dir_from_env() {
    const char* dir = std::getenv("RBFT_OBS_DIR");
    return (dir && dir[0] != '\0') ? dir : nullptr;
}

}  // namespace rbft::obs
