/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
 *
 * The integrity primitive behind the memo cache's journal
 * (harness/journal.hpp): records frame their payload with a CRC so a
 * reader can tell a torn or bit-flipped record from a healthy one
 * instead of misparsing it. Table-driven, dependency-free, and
 * deterministic across platforms — the checksum is part of the on-disk
 * lbsim-journal-v1 format, so it must never vary by host.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lbsim
{

/** CRC-32 of @p size bytes at @p data (init/final XOR 0xFFFFFFFF). */
std::uint32_t crc32(const void *data, std::size_t size);

/** Convenience overload for string payloads. */
inline std::uint32_t
crc32(const std::string &data)
{
    return crc32(data.data(), data.size());
}

} // namespace lbsim
