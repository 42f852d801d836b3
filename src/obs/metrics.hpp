// Metrics registry: cheap counters, gauges, log-bucketed histograms and
// recorded series, keyed by {metric name, node, protocol instance}.
//
// Design goals (mirroring how FnF-BFT instruments per-leader throughput and
// how the RBFT monitoring module itself works):
//  * handles are resolved once at wiring time and are stable pointers, so
//    the hot path is a single inlined increment;
//  * everything is owned by ordered maps, so export order — and therefore
//    the JSON files — is deterministic for a given simulation;
//  * the registry is the single source of truth: protocol nodes and engines
//    always record into it and keep no shadow tallies, so every protocol
//    event is counted exactly once.  Standalone substrate pieces (network,
//    simulator, clients) may still run without one.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/timeseries.hpp"

namespace rbft::obs {

/// Sentinel for metrics not scoped to a node / protocol instance.
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoInstance = 0xFFFFFFFFu;

/// Identity of one metric: name plus optional node/instance scope.
struct MetricKey {
    std::string name;
    std::uint32_t node = kNoNode;
    std::uint32_t instance = kNoInstance;

    auto operator<=>(const MetricKey&) const = default;
};

/// Monotonic event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
    void set(double v) noexcept { value_ = v; }
    [[nodiscard]] double value() const noexcept { return value_; }

private:
    double value_ = 0.0;
};

class MetricsRegistry {
public:
    /// Handle accessors: create on first use, return the same stable
    /// pointer on every subsequent call with the same key (std::map nodes
    /// never move).
    [[nodiscard]] Counter* counter(std::string name, std::uint32_t node = kNoNode,
                                   std::uint32_t instance = kNoInstance) {
        return &counters_[MetricKey{std::move(name), node, instance}];
    }
    [[nodiscard]] Gauge* gauge(std::string name, std::uint32_t node = kNoNode,
                               std::uint32_t instance = kNoInstance) {
        return &gauges_[MetricKey{std::move(name), node, instance}];
    }
    [[nodiscard]] LatencyHistogram* histogram(std::string name, std::uint32_t node = kNoNode,
                                              std::uint32_t instance = kNoInstance) {
        return &histograms_[MetricKey{std::move(name), node, instance}];
    }
    [[nodiscard]] Series* series(std::string name, std::uint32_t node = kNoNode,
                                 std::uint32_t instance = kNoInstance) {
        return &series_[MetricKey{std::move(name), node, instance}];
    }

    // -- Read-side (export, runners, tests) ----------------------------------

    [[nodiscard]] std::uint64_t counter_value(std::string_view name, std::uint32_t node = kNoNode,
                                              std::uint32_t instance = kNoInstance) const {
        const auto it = counters_.find(MetricKey{std::string(name), node, instance});
        return it == counters_.end() ? 0 : it->second.value();
    }

    /// Sum of a counter over every node/instance scope it was recorded in.
    [[nodiscard]] std::uint64_t counter_sum(std::string_view name) const {
        std::uint64_t sum = 0;
        for (const auto& [key, counter] : counters_) {
            if (key.name == name) sum += counter.value();
        }
        return sum;
    }

    [[nodiscard]] const Series* find_series(std::string_view name, std::uint32_t node = kNoNode,
                                            std::uint32_t instance = kNoInstance) const {
        const auto it = series_.find(MetricKey{std::string(name), node, instance});
        return it == series_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] const std::map<MetricKey, Counter>& counters() const noexcept { return counters_; }
    [[nodiscard]] const std::map<MetricKey, Gauge>& gauges() const noexcept { return gauges_; }
    [[nodiscard]] const std::map<MetricKey, LatencyHistogram>& histograms() const noexcept {
        return histograms_;
    }
    [[nodiscard]] const std::map<MetricKey, Series>& all_series() const noexcept { return series_; }

private:
    std::map<MetricKey, Counter> counters_;
    std::map<MetricKey, Gauge> gauges_;
    std::map<MetricKey, LatencyHistogram> histograms_;
    std::map<MetricKey, Series> series_;
};

}  // namespace rbft::obs
