#include "common/parallel.hpp"

#include <cstdio>
#include <thread>

namespace lbsim
{

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
