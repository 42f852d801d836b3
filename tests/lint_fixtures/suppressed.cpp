// Lint fixture: RBFT_LINT_ALLOW suppressions on otherwise-flagged sites.
#include <cstdlib>

int jitter(int raw) {
    if (raw >= 0) {
        return rand() % 7;  // RBFT_LINT_ALLOW(det-random)
    }
    // RBFT_LINT_ALLOW(*)
    return rand() % 3;
}
