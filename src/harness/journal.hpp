/**
 * @file
 * lbsim-journal-v1: a crash-safe append-only record log.
 *
 * The durable store behind the memo cache (harness/memo_cache.hpp). The
 * old memo format was a line-oriented CSV appended in place — a process
 * killed mid-append could leave a torn line that the next reader
 * silently misparsed, and a torn *middle* (two processes interleaving)
 * was undetectable. The journal makes every record self-verifying:
 *
 *   file   := magic-line record*
 *   magic  := "lbsim-journal-v1\n"
 *   record := length:u32le crc:u32le payload[length]
 *
 * where crc is CRC-32 (IEEE) of the payload bytes. Appends take an
 * exclusive flock and issue one write() of the whole frame (plus an
 * optional fsync), so concurrent writers — separate bench processes and
 * crash-isolated sweep children share one store — serialize cleanly and
 * a SIGKILL can tear at most the final frame.
 *
 * recover() is the startup path: it scans the file, loads every intact
 * payload, TRUNCATES a torn tail (the only damage a killed writer can
 * cause), QUARANTINES CRC-mismatched middle records into
 * "<path>.quarantine" and compacts them out of the live file, and
 * reports exactly what it dropped. A file with a foreign or missing
 * magic line is treated as not-a-journal: left untouched until a
 * checkpoint() replaces it. append() does not reset such a file, so its
 * owner checkpoints first (as the memo cache does).
 *
 * checkpoint() compacts: it rewrites the journal with exactly the given
 * records via temp-file + fsync + rename, so a crash mid-compaction
 * leaves the previous journal intact.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lbsim
{

/** What Journal::recover() found and repaired. */
struct JournalRecovery
{
    /** Intact records loaded. */
    std::size_t recordsLoaded = 0;
    /** CRC-mismatched records moved to the quarantine file. */
    std::size_t quarantined = 0;
    /** Torn-tail bytes truncated off the end. */
    std::uint64_t truncatedBytes = 0;
    /** File was missing or carried a foreign magic line. */
    bool freshStart = false;
    /** One-line human-readable summary of the above. */
    std::string summary() const;
};

/** Append-only CRC-framed record log (format lbsim-journal-v1). */
class Journal
{
  public:
    /** @param path Journal location; created on the first append. */
    explicit Journal(std::string path);

    /**
     * Scan the journal, load every intact payload into @p records (in
     * append order), and repair the file: truncate a torn tail,
     * quarantine corrupt middle records into path()+".quarantine" and
     * compact them out. Safe to call on a missing file (fresh start).
     * Returns false — with a reason in @p error — only on I/O failure;
     * corruption is never an error, it is what recovery is for.
     */
    bool recover(std::vector<std::string> &records,
                 JournalRecovery &report, std::string *error = nullptr);

    /**
     * Append one record. Creates the file (with its magic line) when
     * absent; takes an exclusive flock so concurrent appenders — other
     * threads or other processes — cannot interleave frames.
     */
    bool append(const std::string &payload, std::string *error = nullptr);

    /**
     * Atomically rewrite the journal to contain exactly @p records
     * (temp file + fsync + rename). The compaction half of the
     * write-ahead scheme: callers fold superseded records first.
     */
    bool checkpoint(const std::vector<std::string> &records,
                    std::string *error = nullptr);

    const std::string &path() const { return path_; }

    /** Version line heading every journal file (no newline). */
    static const char *magicLine();

    /** Serialize one frame (length + crc + payload) — exposed for
     *  tests that hand-build corrupt journals. */
    static std::string frameRecord(const std::string &payload);

    /** Sanity bound on a single record; larger lengths mean a corrupt
     *  length field, from which framing cannot resync. */
    static constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

  private:
    std::string path_;
};

} // namespace lbsim
