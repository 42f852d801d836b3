// Protocol comparison: fault-free throughput and latency of RBFT (TCP and
// UDP), Aardvark, Spinning and Prime at a moderate load — a miniature of
// the paper's Fig. 7 runnable in a few seconds.
//
//   $ ./build/examples/protocol_comparison
#include <cstdio>

#include "exp/runners.hpp"

using namespace rbft;

int main() {
    std::printf("%-10s %-8s %12s %12s %10s\n", "protocol", "payload", "offered(k/s)",
                "done(k/s)", "mean(ms)");

    for (const std::size_t payload : {std::size_t{8}, std::size_t{4096}}) {
        for (const auto protocol :
             {exp::Protocol::kRbftTcp, exp::Protocol::kRbftUdp, exp::Protocol::kAardvark,
              exp::Protocol::kSpinning, exp::Protocol::kPrime}) {
            const double rate = 0.6 * exp::capacity(protocol, payload);
            exp::ScenarioOutput out;
            const char* name = "?";
            switch (protocol) {
                case exp::Protocol::kRbftTcp:
                case exp::Protocol::kRbftUdp: {
                    exp::RbftScenario scenario;
                    scenario.use_udp = protocol == exp::Protocol::kRbftUdp;
                    scenario.payload_bytes = payload;
                    scenario.rate = rate;
                    scenario.warmup = seconds(0.5);
                    scenario.measure = seconds(1.0);
                    out = exp::run_rbft(scenario);
                    name = protocol == exp::Protocol::kRbftUdp ? "RBFT-UDP" : "RBFT-TCP";
                    break;
                }
                case exp::Protocol::kAardvark:
                case exp::Protocol::kSpinning:
                case exp::Protocol::kPrime: {
                    exp::BaselineScenario scenario;
                    scenario.protocol = protocol;
                    scenario.payload_bytes = payload;
                    scenario.rate = rate;
                    scenario.warmup = seconds(0.5);
                    scenario.measure = seconds(1.0);
                    out = exp::run_baseline(scenario);
                    name = protocol == exp::Protocol::kAardvark ? "Aardvark"
                           : protocol == exp::Protocol::kSpinning ? "Spinning"
                                                                  : "Prime";
                    break;
                }
            }
            std::printf("%-10s %-8zu %12.2f %12.2f %10.2f\n", name, payload, rate / 1000.0,
                        out.result.kreq_s, out.result.mean_latency_ms);
        }
        std::printf("\n");
    }
    return 0;
}
