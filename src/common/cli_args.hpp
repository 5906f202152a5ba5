/**
 * @file
 * Numeric arguments at the command-line boundary, shared by lbsim_cli
 * and the figure benches: a malformed or out-of-range value exits 1
 * with a one-line message instead of silently becoming a default. The
 * simulator itself is single-threaded; parallelism lives across sweep
 * cells, which the experiment engine runs on its own workers
 * (DESIGN.md §9).
 */

#pragma once

#include <cstdint>

namespace lbsim
{

/**
 * Parse @p text, the value of flag @p name, as a decimal integer in
 * [@p lo, @p hi]. Anything else (no digits, a sign, trailing junk, out
 * of range) prints a one-line error naming the flag and returns false.
 */
bool parseBounded(const char *name, const char *text, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t &out);

/**
 * Clamp a user-supplied thread-count argument to the machine's hardware
 * concurrency, warning once on stderr when it was lowered. 0 (meaning
 * "auto") passes through untouched. CLI-boundary only: library code and
 * tests may still oversubscribe deliberately, but a human typing
 * --threads 32 on a 1-core box is better served by the clamp than by
 * thrashing.
 * @param flag_name Flag to name in the warning (e.g. "--threads").
 */
unsigned clampThreadArg(unsigned requested, const char *flag_name);

} // namespace lbsim
