#include "common/cli_args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace lbsim
{

bool
parseBounded(const char *name, const char *text, std::uint64_t lo,
             std::uint64_t hi, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0 ||
        value < lo || value > hi) {
        std::fprintf(stderr, "%s: expected an integer in [%llu, %llu], "
                     "got '%s'\n", name,
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        return false;
    }
    out = value;
    return true;
}

unsigned
clampThreadArg(unsigned requested, const char *flag_name)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (requested == 0 || hw == 0 || requested <= hw)
        return requested;
    std::fprintf(stderr,
                 "warning: %s %u exceeds the %u hardware thread(s); "
                 "clamping to %u\n",
                 flag_name, requested, hw, hw);
    return hw;
}

} // namespace lbsim
