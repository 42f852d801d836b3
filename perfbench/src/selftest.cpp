// The benchmark's own self-test: same-seed determinism of the sim-time
// outputs, the percentile rule, and the failure accounting.
#include <cstdio>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
}

Outcomes completions(int n) {
    Outcomes o;
    for (int i = 1; i <= n; ++i) o.completed(static_cast<double>(i));
    return o;
}

}  // namespace

int run_selftest() {
    // Percentile rule: report a percentile only with >= 10 samples beyond it.
    expect(!completions(999).percentile(0.99).has_value(), "p99 withheld at 999 samples");
    expect(completions(1000).percentile(0.99) == 990.0, "p99 of 1..1000 is 990");
    expect(!completions(9999).percentile(0.999).has_value(), "p999 withheld at 9999 samples");
    expect(completions(10000).percentile(0.999) == 9990.0, "p999 of 1..10000 is 9990");
    expect(completions(21).percentile(0.5) == 11.0, "p50 of 1..21 is 11");
    expect(!completions(19).percentile(0.5).has_value(), "p50 withheld at 19 samples");

    // Failure accounting: refused or never-completed requests are attempted,
    // failed, and miss every percentile they would rank in.
    Outcomes o = completions(1000);
    o.failed(20);
    expect(o.attempted() == 1020 && o.failed_count() == 20, "failures count as attempted");
    expect(!o.percentile(0.99).has_value(), "p99 missed when 2% of requests failed");
    expect(o.percentile(0.5) == 510.0, "p50 ranks over attempted requests");

    // Same seed, same sim-time outputs; another seed, other outputs.
    const std::string a = sim_digest_for_selftest(7);
    const std::string b = sim_digest_for_selftest(7);
    const std::string c = sim_digest_for_selftest(8);
    std::printf("     seed 7: %s\n     seed 8: %s\n", a.c_str(), c.c_str());
    expect(a == b, "two same-seed runs give byte-identical sim-time outputs");
    expect(a != c, "a different seed gives different inputs");

    std::printf("%s\n", failures == 0 ? "selftest PASS" : "selftest FAIL");
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
