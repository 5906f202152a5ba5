/**
 * @file
 * Crash-safe filesystem helpers.
 *
 * Every JSON artifact the harness emits (BENCH_*.json, hang reports,
 * fuzz repro files) used to be written with a plain truncating
 * ofstream — a process killed mid-write left a half-written file that
 * downstream tooling then misparsed. The fix is one shared primitive:
 * atomicWriteFile() stages the content in a
 * temporary file in the destination directory, fsyncs it, and renames
 * it over the target, so readers only ever observe the old content or
 * the complete new content, never a torn prefix.
 */

#pragma once

#include <string>

namespace lbsim
{

/**
 * Atomically replace @p path with @p content (temp file + fsync +
 * rename). On failure the target is left untouched, the temp file is
 * removed, and @p error (when non-null) receives a one-line reason.
 */
bool atomicWriteFile(const std::string &path, const std::string &content,
                     std::string *error = nullptr);

/**
 * Read the whole file at @p path into @p out (binary-exact). Returns
 * false — with a reason in @p error when non-null — if the file cannot
 * be opened or read.
 */
bool readFileToString(const std::string &path, std::string &out,
                      std::string *error = nullptr);

/** Directory component of @p path ("." when it has none). */
std::string dirnameOf(const std::string &path);

} // namespace lbsim
