#include "protocols/registry.hpp"

namespace rbft::protocols {

const std::vector<ProtocolEntry>& protocol_registry() {
    static const std::vector<ProtocolEntry> kRegistry = {
        {"rbft", Family::kRbft, bft::ExecutionBackend::kMasterOnly},
        {"rbft-merged", Family::kRbft, bft::ExecutionBackend::kMerged},
        {"aardvark", Family::kAardvark},
        {"spinning", Family::kSpinning},
        {"prime", Family::kPrime},
    };
    return kRegistry;
}

std::optional<ProtocolEntry> find_protocol(std::string_view name) {
    for (const auto& entry : protocol_registry()) {
        if (name == entry.name) return entry;
    }
    return std::nullopt;
}

}  // namespace rbft::protocols
