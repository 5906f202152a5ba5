// Fixture: NOLINT suppression. Each would-be finding is silenced by a
// NOLINT / NOLINTNEXTLINE comment naming the check, so this file must
// come out clean.

#include <cstdlib>

int
suppressedSameLine()
{
    return std::rand(); // NOLINT(lbsim-nondeterminism) fixture: suppression demo
}

int
suppressedNextLine()
{
    // NOLINTNEXTLINE(lbsim-nondeterminism)
    return std::rand();
}

struct SuppressedOptions
{
    int verbosity; // NOLINT(lbsim-uninit-field)
};
