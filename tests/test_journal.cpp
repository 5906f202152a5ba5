/**
 * @file
 * Tests for the memo cache's durability layer: the lbsim-journal-v1
 * record log (recovery over hand-built torn and corrupted files), the
 * crash-safe atomicWriteFile primitive, and how MemoCache loads,
 * replays and replaces what it finds on disk: a journal whose last
 * writer was killed mid-append, corrupt, foreign and stale-schema
 * stores, and the LBSIM_NO_CACHE bypass.
 *
 * Nothing here may fork: the TSan CI job runs the MemoCache* suites.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fs.hpp"
#include "harness/journal.hpp"
#include "harness/memo_cache.hpp"

namespace lbsim
{
namespace
{

// --- Helpers ---------------------------------------------------------------

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readRaw(const std::string &path)
{
    std::string content;
    readFileToString(path, content);
    return content;
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

/** magic line + the given pre-framed records. */
std::string
journalBytes(const std::vector<std::string> &payloads)
{
    std::string bytes = Journal::magicLine();
    bytes += '\n';
    for (const std::string &payload : payloads)
        bytes += Journal::frameRecord(payload);
    return bytes;
}

/** Every intact record of the journal at @p path, in append order. */
std::vector<std::string>
recoverRecords(const std::string &path)
{
    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    EXPECT_TRUE(Journal(path).recover(records, report, &error)) << error;
    return records;
}

// --- Journal: append/recover round trip ------------------------------------

TEST(JournalTest, AppendThenRecoverRoundTrips)
{
    const std::string path = tempPath("journal_roundtrip.journal");
    std::remove(path.c_str());

    Journal journal(path);
    std::string error;
    ASSERT_TRUE(journal.append("alpha", &error)) << error;
    ASSERT_TRUE(journal.append("", &error)) << error;  // empty is legal
    ASSERT_TRUE(journal.append("gamma|with|pipes\nand newline", &error))
        << error;

    std::vector<std::string> records;
    JournalRecovery report;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0], "alpha");
    EXPECT_EQ(records[1], "");
    EXPECT_EQ(records[2], "gamma|with|pipes\nand newline");
    EXPECT_EQ(report.recordsLoaded, 3u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.truncatedBytes, 0u);
    EXPECT_FALSE(report.freshStart);
    std::remove(path.c_str());
}

TEST(JournalTest, MissingFileIsAFreshStart)
{
    const std::string path = tempPath("journal_missing.journal");
    std::remove(path.c_str());

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(report.freshStart);
    // recover() must not create the file; only append() does.
    EXPECT_FALSE(fileExists(path));
}

TEST(JournalTest, ForeignFileIsLeftUntouched)
{
    const std::string path = tempPath("journal_foreign.journal");
    const std::string foreign = "just,a,csv\nwith,two,lines\n";
    writeRaw(path, foreign);

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(report.freshStart);
    // Not a journal: recovery must not "repair" (i.e. destroy) it.
    EXPECT_EQ(readRaw(path), foreign);
    std::remove(path.c_str());
}

// --- Journal: the two corruption modes the format is built for -------------

TEST(JournalTest, TruncatedTailIsDroppedAndRepaired)
{
    const std::string path = tempPath("journal_torn.journal");
    const std::string intact = journalBytes({"one", "two"});
    const std::string torn = Journal::frameRecord("three");
    // A writer killed mid-append leaves part of the final frame.
    writeRaw(path, intact + torn.substr(0, torn.size() - 2));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "one");
    EXPECT_EQ(records[1], "two");
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.truncatedBytes, torn.size() - 2);

    // The repair is durable: the torn bytes are gone from disk and a
    // second recovery is clean.
    EXPECT_EQ(readRaw(path), intact);
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(report.truncatedBytes, 0u);
    std::remove(path.c_str());
}

TEST(JournalTest, TornLengthHeaderCountsAsTorn)
{
    const std::string path = tempPath("journal_torn_header.journal");
    // Only 3 bytes of the next length field made it to disk.
    writeRaw(path, journalBytes({"keep"}) + std::string(3, '\x7f'));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], "keep");
    EXPECT_EQ(report.truncatedBytes, 3u);
    EXPECT_EQ(readRaw(path), journalBytes({"keep"}));
    std::remove(path.c_str());
}

TEST(JournalTest, AbsurdLengthFieldCountsAsTorn)
{
    const std::string path = tempPath("journal_bad_length.journal");
    // A length beyond kMaxRecordBytes means the length field itself is
    // garbage; framing cannot resync past it, so the file is cut there.
    std::string bogus(8, '\0');
    const std::uint32_t huge = Journal::kMaxRecordBytes + 1;
    bogus[0] = static_cast<char>(huge & 0xff);
    bogus[1] = static_cast<char>((huge >> 8) & 0xff);
    bogus[2] = static_cast<char>((huge >> 16) & 0xff);
    bogus[3] = static_cast<char>((huge >> 24) & 0xff);
    writeRaw(path, journalBytes({"keep"}) + bogus + "trailing junk");

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], "keep");
    EXPECT_GT(report.truncatedBytes, 0u);
    EXPECT_EQ(readRaw(path), journalBytes({"keep"}));
    std::remove(path.c_str());
}

TEST(JournalTest, CorruptMiddleRecordIsQuarantinedNotFatal)
{
    const std::string path = tempPath("journal_quarantine.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());

    std::string bad = Journal::frameRecord("bbb-corrupted-victim");
    bad[8] ^= 0x01;  // flip one payload bit; CRC now mismatches
    writeRaw(path, journalBytes({"aaa"}) + bad +
                       Journal::frameRecord("ccc"));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    // Only the bad record is dropped; the records AROUND it survive.
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "aaa");
    EXPECT_EQ(records[1], "ccc");
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_FALSE(report.freshStart);
    EXPECT_NE(report.summary().find("quarantined"), std::string::npos);

    // The corrupt frame moved to the quarantine file and was compacted
    // out of the live journal, which now recovers clean.
    EXPECT_TRUE(fileExists(quarantine));
    EXPECT_FALSE(readRaw(quarantine).empty());
    EXPECT_EQ(readRaw(path), journalBytes({"aaa", "ccc"}));
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(report.quarantined, 0u);
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(JournalTest, CorruptMiddlePlusTornTailRepairsBoth)
{
    const std::string path = tempPath("journal_both.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());

    std::string bad = Journal::frameRecord("middle");
    bad[bad.size() - 1] ^= 0x40;
    const std::string torn = Journal::frameRecord("tail");
    writeRaw(path, journalBytes({"first"}) + bad +
                       Journal::frameRecord("third") +
                       torn.substr(0, torn.size() - 1));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "first");
    EXPECT_EQ(records[1], "third");
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.truncatedBytes, torn.size() - 1);
    EXPECT_EQ(readRaw(path), journalBytes({"first", "third"}));
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(JournalTest, CheckpointRewritesExactly)
{
    const std::string path = tempPath("journal_checkpoint.journal");
    std::remove(path.c_str());

    Journal journal(path);
    std::string error;
    ASSERT_TRUE(journal.append("stale-1", &error)) << error;
    ASSERT_TRUE(journal.append("stale-2", &error)) << error;
    ASSERT_TRUE(journal.checkpoint({"fresh-a", "fresh-b"}, &error))
        << error;

    std::vector<std::string> records;
    JournalRecovery report;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "fresh-a");
    EXPECT_EQ(records[1], "fresh-b");
    // Appends keep working after a checkpoint.
    ASSERT_TRUE(journal.append("post", &error)) << error;
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 3u);
    std::remove(path.c_str());
}

TEST(JournalTest, MagicOnlyFileIsCleanAndEmpty)
{
    const std::string path = tempPath("journal_magic_only.journal");
    writeRaw(path, journalBytes({}));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    // A journal with no records yet is a journal, not a fresh start.
    EXPECT_TRUE(records.empty());
    EXPECT_FALSE(report.freshStart);
    EXPECT_EQ(report.recordsLoaded, 0u);
    EXPECT_EQ(report.truncatedBytes, 0u);
    EXPECT_EQ(readRaw(path), journalBytes({}));
    std::remove(path.c_str());
}

TEST(JournalTest, SummaryNamesEveryRepair)
{
    JournalRecovery fresh;
    fresh.freshStart = true;
    EXPECT_EQ(fresh.summary(), "fresh journal (no prior records)");

    JournalRecovery clean;
    clean.recordsLoaded = 3;
    EXPECT_EQ(clean.summary(), "3 record(s) recovered, clean");

    JournalRecovery repaired;
    repaired.recordsLoaded = 2;
    repaired.quarantined = 1;
    repaired.truncatedBytes = 5;
    EXPECT_EQ(repaired.summary(),
              "2 record(s) recovered, 1 corrupt record(s) quarantined, "
              "5 torn tail byte(s) truncated");
}

TEST(JournalTest, QuarantineFileAccumulatesAcrossRecoveries)
{
    const std::string path = tempPath("journal_quarantine_twice.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());

    std::string first = Journal::frameRecord("first-victim");
    first.back() ^= 0x01;  // payload stays findable up to its last byte
    writeRaw(path, journalBytes({"keep"}) + first);
    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(report.quarantined, 1u);
    const std::string after_first = readRaw(quarantine);
    EXPECT_NE(after_first.find("first-victi"), std::string::npos);

    // A later corruption appends to the quarantine file; the earlier
    // evidence is never overwritten.
    std::string second = Journal::frameRecord("second-victim");
    second.back() ^= 0x02;
    writeRaw(path, journalBytes({"keep"}) + second);
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(report.quarantined, 1u);
    const std::string after_second = readRaw(quarantine);
    EXPECT_EQ(after_second.compare(0, after_first.size(), after_first), 0);
    EXPECT_NE(after_second.find("second-victi", after_first.size()),
              std::string::npos);
    EXPECT_EQ(records, std::vector<std::string>{"keep"});
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(JournalTest, CheckpointReplacesForeignFile)
{
    const std::string path = tempPath("journal_foreign_checkpoint.journal");
    writeRaw(path, "key,value\nold,csv\n");

    Journal journal(path);
    std::string error;
    ASSERT_TRUE(journal.checkpoint({"fresh"}, &error)) << error;
    EXPECT_EQ(readRaw(path), journalBytes({"fresh"}));

    std::vector<std::string> records;
    JournalRecovery report;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_FALSE(report.freshStart);
    EXPECT_EQ(records, std::vector<std::string>{"fresh"});
    std::remove(path.c_str());
}

// --- atomicWriteFile -------------------------------------------------------

TEST(AtomicWriteFileTest, WritesAndReplacesContent)
{
    const std::string path = tempPath("atomic_write.txt");
    std::remove(path.c_str());

    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "first version\n", &error)) << error;
    EXPECT_EQ(readRaw(path), "first version\n");
    // Binary-exact, embedded NUL included.
    const std::string binary("second\0version", 14);
    ASSERT_TRUE(atomicWriteFile(path, binary, &error)) << error;
    EXPECT_EQ(readRaw(path), binary);
}

TEST(AtomicWriteFileTest, FailureLeavesTargetUntouched)
{
    const std::string path =
        tempPath("no_such_dir_xyz/atomic_write.txt");
    std::string error;
    EXPECT_FALSE(atomicWriteFile(path, "content", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fileExists(path));
}

// --- MemoCache over a torn journal -----------------------------------------

TEST(MemoCache, TornTailKeyMissesAndNextStoreAppendsCleanly)
{
    const std::string path = tempPath("memo_torn.journal");
    std::remove(path.c_str());
    {
        MemoCache cache(path);
        cache.store("k1", "v1");
        cache.store("k2", "v2");
    }
    // A writer killed mid-store leaves half of its frame behind.
    const std::string torn = Journal::frameRecord("k3|v3");
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write(torn.data(),
                  static_cast<std::streamsize>(torn.size() / 2));
        ASSERT_TRUE(out.good()) << path;
    }

    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("k1").value_or(""), "v1");
    EXPECT_EQ(reloaded.lookup("k2").value_or(""), "v2");
    EXPECT_FALSE(reloaded.lookup("k3").has_value());
    EXPECT_EQ(reloaded.size(), 2u);

    // The load truncated the torn bytes, so the next store lands on a
    // frame boundary and the file recovers without repair.
    reloaded.store("k4", "v4");
    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(report.truncatedBytes, 0u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(records,
              (std::vector<std::string>{MemoCache::schemaHeader(),
                                        "k1|v1", "k2|v2", "k4|v4"}));

    MemoCache again(path);
    EXPECT_EQ(again.lookup("k1").value_or(""), "v1");
    EXPECT_EQ(again.lookup("k2").value_or(""), "v2");
    EXPECT_EQ(again.lookup("k4").value_or(""), "v4");
    EXPECT_FALSE(again.lookup("k3").has_value());
    std::remove(path.c_str());
}

TEST(MemoCache, FirstStoreWritesSchemaRecordFirst)
{
    const std::string path = tempPath("memo_schema_first.journal");
    std::remove(path.c_str());
    {
        MemoCache cache(path);
        // Loading a missing store must not create it.
        EXPECT_FALSE(fileExists(path));
        cache.store("a", "1");
        cache.store("b", "2");
    }
    EXPECT_EQ(recoverRecords(path),
              (std::vector<std::string>{MemoCache::schemaHeader(),
                                        "a|1", "b|2"}));
    std::remove(path.c_str());
}

TEST(MemoCache, LastWriteWinsAcrossReload)
{
    const std::string path = tempPath("memo_last_write.journal");
    std::remove(path.c_str());
    {
        MemoCache cache(path);
        cache.store("key", "old");
        cache.store("key", "new");
        EXPECT_EQ(cache.size(), 1u);
    }
    // Both records stay on disk; replay keeps the later one.
    EXPECT_EQ(recoverRecords(path).size(), 3u);
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("key").value_or(""), "new");
    EXPECT_EQ(reloaded.size(), 1u);
    std::remove(path.c_str());
}

TEST(MemoCache, ValueMayContainSeparator)
{
    const std::string path = tempPath("memo_separator.journal");
    std::remove(path.c_str());
    const std::string value = "ipc=1.5|cycles=400000|\nsecond line";
    {
        MemoCache cache(path);
        cache.store("cell", value);
    }
    // Records split at the first '|': keys never contain one, values may.
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("cell").value_or(""), value);
    std::remove(path.c_str());
}

TEST(MemoCache, CorruptMiddleRecordMissesAndNeighboursHit)
{
    const std::string path = tempPath("memo_corrupt_middle.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());
    std::string bad = Journal::frameRecord("k2|v2");
    bad[bad.size() - 1] ^= 0x04;
    writeRaw(path, journalBytes({MemoCache::schemaHeader(), "k1|v1"}) +
                       bad + Journal::frameRecord("k3|v3"));

    MemoCache cache(path);
    EXPECT_EQ(cache.lookup("k1").value_or(""), "v1");
    EXPECT_FALSE(cache.lookup("k2").has_value());
    EXPECT_EQ(cache.lookup("k3").value_or(""), "v3");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(fileExists(quarantine));

    // The load compacted the bad frame out, so a recompute of the lost
    // cell appends cleanly and every key survives the next reload.
    cache.store("k2", "v2");
    EXPECT_EQ(recoverRecords(path),
              (std::vector<std::string>{MemoCache::schemaHeader(),
                                        "k1|v1", "k3|v3", "k2|v2"}));
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 3u);
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(MemoCache, ForeignFileIsReplacedOnlyOnFirstStore)
{
    const std::string path = tempPath("memo_foreign.journal");
    const std::string foreign = "k1,v1\nnot,a,journal\n";
    writeRaw(path, foreign);

    MemoCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    // Loading and missing leave the foreign bytes alone...
    EXPECT_EQ(readRaw(path), foreign);

    // ...and the first store replaces them with a well-formed journal
    // instead of appending frames after them.
    cache.store("k2", "v2");
    EXPECT_EQ(readRaw(path),
              journalBytes({MemoCache::schemaHeader(), "k2|v2"}));
    cache.store("k3", "v3");
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("k2").value_or(""), "v2");
    EXPECT_EQ(reloaded.lookup("k3").value_or(""), "v3");
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(MemoCache, StaleSchemaJournalIsCheckpointedNotAppended)
{
    const std::string path = tempPath("memo_stale_schema.journal");
    // Valid lbsim-journal-v1 framing, but another schema's records.
    writeRaw(path, journalBytes({"#lbsim-memo-schema 3", "old|value"}));

    MemoCache cache(path);
    EXPECT_FALSE(cache.lookup("old").has_value());
    cache.store("new", "value");
    EXPECT_EQ(recoverRecords(path),
              (std::vector<std::string>{MemoCache::schemaHeader(),
                                        "new|value"}));
    MemoCache reloaded(path);
    EXPECT_FALSE(reloaded.lookup("old").has_value());
    EXPECT_EQ(reloaded.lookup("new").value_or(""), "value");
    std::remove(path.c_str());
}

TEST(MemoCache, DuplicateSchemaAndMalformedRecordsAreSkipped)
{
    const std::string path = tempPath("memo_skip_records.journal");
    // Two processes racing their first store can both write the schema
    // record; a payload without a separator is not a key/value pair.
    writeRaw(path, journalBytes({MemoCache::schemaHeader(), "k1|v1",
                                 MemoCache::schemaHeader(), "no-separator",
                                 "k2|v2"}));

    MemoCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup("k1").value_or(""), "v1");
    EXPECT_EQ(cache.lookup("k2").value_or(""), "v2");
    EXPECT_FALSE(cache.lookup("no-separator").has_value());
    std::remove(path.c_str());
}

TEST(MemoCache, DisabledCacheNeverTouchesDisk)
{
    const std::string path = tempPath("memo_disabled.journal");
    writeRaw(path, journalBytes({MemoCache::schemaHeader(), "k|v"}));
    const std::string before = readRaw(path);

    ASSERT_EQ(setenv("LBSIM_NO_CACHE", "1", 1), 0);
    MemoCache cache(path);
    ASSERT_EQ(unsetenv("LBSIM_NO_CACHE"), 0);

    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_EQ(cache.size(), 0u);
    cache.store("k2", "v2");
    int computed = 0;
    const auto compute = [&computed] {
        ++computed;
        return std::string("fresh");
    };
    EXPECT_EQ(cache.getOrCompute("k3", compute), "fresh");
    EXPECT_EQ(cache.getOrCompute("k3", compute), "fresh");
    // Every call computes and nothing is read or written.
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(readRaw(path), before);
    std::remove(path.c_str());
}

TEST(MemoCache, ThrowingComputeLeavesKeyUncached)
{
    const std::string path = tempPath("memo_throwing.journal");
    std::remove(path.c_str());

    MemoCache cache(path);
    EXPECT_THROW(cache.getOrCompute(
                     "cell",
                     []() -> std::string {
                         throw std::runtime_error("simulation failed");
                     }),
                 std::runtime_error);
    EXPECT_FALSE(cache.lookup("cell").has_value());
    EXPECT_FALSE(fileExists(path));

    // The failed flight is cleared, so a retry computes and persists.
    EXPECT_EQ(cache.getOrCompute("cell", [] { return std::string("ok"); }),
              "ok");
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("cell").value_or(""), "ok");
    std::remove(path.c_str());
}

TEST(MemoCache, SharedIsOnePerPath)
{
    const std::string path_a = tempPath("memo_shared_a.journal");
    const std::string path_b = tempPath("memo_shared_b.journal");
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());

    ASSERT_EQ(setenv("LBSIM_CACHE_PATH", path_a.c_str(), 1), 0);
    MemoCache &first = MemoCache::shared();
    MemoCache &again = MemoCache::shared();
    ASSERT_EQ(setenv("LBSIM_CACHE_PATH", path_b.c_str(), 1), 0);
    MemoCache &other = MemoCache::shared();
    ASSERT_EQ(unsetenv("LBSIM_CACHE_PATH"), 0);

    EXPECT_EQ(&first, &again);
    EXPECT_NE(&first, &other);
    first.store("k", "a");
    EXPECT_FALSE(other.lookup("k").has_value());
    EXPECT_EQ(MemoCache(path_a).lookup("k").value_or(""), "a");
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

} // namespace
} // namespace lbsim
