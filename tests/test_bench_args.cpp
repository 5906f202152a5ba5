/**
 * @file
 * Tests for the arguments every figure bench shares (bench_common.hpp):
 * the defaults, each accepted flag, and the exit code of each way a
 * command line can be refused. check_cli.py drives one real bench
 * binary end-to-end; these pin the parsed options themselves.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace lbsim::bench
{
namespace
{

/** parseBenchArgs over @p args, with "bench_unit" as argv[0]. */
BenchOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> storage = {"bench_unit"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                          "unit");
}

TEST(BenchArgs, DefaultsAreTheScaledSliceWithAutoThreads)
{
    const BenchOptions opts = parse({});
    EXPECT_EQ(opts.benchName, "unit");
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_EQ(opts.sms, 0u);
    EXPECT_FALSE(opts.smoke);
    EXPECT_TRUE(opts.writeJson);
    EXPECT_EQ(opts.jsonPath, "BENCH_unit.json");
    EXPECT_EQ(benchRunnerOptions(opts).simSms, 2u);
}

TEST(BenchArgs, ReadsEverySharedFlag)
{
    BenchOptions opts = parse({"--threads", "1", "--sms", "4", "--smoke",
                               "--json", "out.json"});
    EXPECT_EQ(opts.threads, 1u);
    EXPECT_EQ(opts.sms, 4u);
    EXPECT_TRUE(opts.smoke);
    EXPECT_TRUE(opts.writeJson);
    EXPECT_EQ(opts.jsonPath, "out.json");
    EXPECT_EQ(benchRunnerOptions(opts).simSms, 4u);

    // --threads 0 is "one worker per hardware thread", not an error.
    opts = parse({"--threads", "0", "--no-json"});
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_FALSE(opts.writeJson);
}

TEST(BenchArgs, BadValueExitsOneBeforeALaterHelp)
{
    using ::testing::ExitedWithCode;
    EXPECT_EXIT(parse({"--sms", "abc", "--threads", "xyz", "--help"}),
                ExitedWithCode(1), "--sms");
    EXPECT_EXIT(parse({"--sms", "0"}), ExitedWithCode(1), "--sms");
    EXPECT_EXIT(parse({"--threads", "-1"}), ExitedWithCode(1),
                "--threads");
    EXPECT_EXIT(parse({"--threads", "0", "--sms", "2x"}),
                ExitedWithCode(1), "--sms");
}

TEST(BenchArgs, MissingValueExitsOne)
{
    using ::testing::ExitedWithCode;
    EXPECT_EXIT(parse({"--threads"}), ExitedWithCode(1),
                "--threads: missing value");
    EXPECT_EXIT(parse({"--smoke", "--sms"}), ExitedWithCode(1),
                "--sms: missing value");
}

TEST(BenchArgs, HelpExitsZeroAndUnknownArgumentExitsTwo)
{
    using ::testing::ExitedWithCode;
    EXPECT_EXIT(parse({"--help"}), ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"-h"}), ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"--frobnicate"}), ExitedWithCode(2),
                "unknown argument '--frobnicate'");
}

} // namespace
} // namespace lbsim::bench
