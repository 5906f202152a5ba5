/**
 * @file
 * Thread-count arguments at the CLI boundary. The simulator itself is
 * single-threaded; parallelism lives across sweep cells, which the
 * experiment engine runs on its own workers (DESIGN.md §9).
 */

#pragma once

namespace lbsim
{

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
