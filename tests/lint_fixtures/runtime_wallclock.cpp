// Planted det-wallclock + det-random violations, exercised by the
// src/runtime exemption: the *same text* must produce zero determinism findings
// when analyzed under a src/runtime/ path and the usual findings under a
// protocol-critical path.  Analyzer input only — never compiled.
#include <chrono>
#include <random>

namespace fixture {

long long wallclock_probe() {
    // det-wallclock: host clock read.
    const auto t = std::chrono::steady_clock::now();
    return t.time_since_epoch().count();
}

unsigned random_probe() {
    // det-random: ambient entropy.
    std::random_device dev;
    return dev();
}

}  // namespace fixture
