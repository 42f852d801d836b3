// Differential conformance: every registered contender (RBFT with each of
// its execution backends, plus the Aardvark / Spinning / Prime baselines)
// under the identical workload and seed.  Every protocol must complete the
// same closed-loop request set — executed (client, request) pairs are
// collected from client completions and compared across protocols.
// Divergence means one implementation dropped, duplicated or invented a
// request the others agreed on.
//
// The contender list comes from protocols::protocol_registry(); a new
// backend registered there automatically becomes a conformance contender.
// Attack knobs (equivocation, master degradation) apply to the RBFT family
// only and automatically restrict the run to it — the comparison is then
// "merged execution commits the same request set as master-only RBFT even
// under attack".
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace rbft::check {

struct ConformanceScenario {
    std::uint32_t f = 1;
    std::uint64_t seed = 3;
    std::uint32_t clients = 4;
    /// Closed-loop requests each client must complete.
    std::uint32_t requests_per_client = 25;
    std::size_t payload_bytes = 8;
    Duration think_time = microseconds(200.0);
    /// Hard stop per protocol run (all completions normally land well
    /// before this).
    Duration time_limit = seconds(20.0);
    /// Contenders by registry name (protocols::protocol_registry()); empty
    /// = every registered protocol/backend.
    std::vector<std::string> contenders;
    /// Plant equivocating master engines at the masked nodes (RBFT family
    /// only; selecting it drops the baselines from the run).
    std::uint64_t equivocate_mask = 0;
    /// Degrade the master primary until monitoring replaces it
    /// (attacks::MasterDegradation; RBFT family only, drops the baselines).
    bool master_degradation = false;

    [[nodiscard]] bool attacked() const noexcept {
        return equivocate_mask != 0 || master_degradation;
    }
};

struct ProtocolExecution {
    std::string protocol;
    std::uint64_t completed = 0;
    bool all_completed = false;
    /// Completed (client id, request id) pairs.
    std::set<std::pair<std::uint32_t, std::uint64_t>> executed;
};

struct ConformanceResult {
    std::vector<ProtocolExecution> runs;
    /// Every protocol completed its full workload.
    bool all_completed = false;
    /// All executed sets are identical across protocols.
    bool sets_match = false;

    [[nodiscard]] bool ok() const noexcept { return all_completed && sets_match; }
};

/// Runs the scenario on every selected contender from the protocol
/// registry.
[[nodiscard]] ConformanceResult run_conformance(const ConformanceScenario& scenario);

}  // namespace rbft::check
