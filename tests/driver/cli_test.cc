/**
 * @file
 * The orchestration flags tmi-sweep and tmi-chaos share: defaults,
 * the flag-to-option mapping, the sharding-needs-a-journal rule,
 * strict numeric values, and the pass-through of every other flag.
 */

#include <gtest/gtest.h>

#include "driver/cli.hh"

namespace tmi::driver
{

namespace
{

/** parseOrchestrationFlags over @p args (argv minus the program). */
bool
parse(std::vector<std::string> args, OrchestrationFlags &out,
      std::string *err = nullptr, std::vector<std::string> *rest = nullptr)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    std::vector<std::string> r;
    std::string e;
    return parseOrchestrationFlags(static_cast<int>(argv.size()),
                                   argv.data(), out, rest ? *rest : r,
                                   err ? *err : e);
}

} // namespace

TEST(OrchestrationFlags, DefaultsAreTheCliDefaults)
{
    OrchestrationFlags f;
    ASSERT_TRUE(parse({"--csv", "out.csv"}, f));
    EXPECT_EQ(f.shard.runner.workers, 1u);
    EXPECT_TRUE(f.shard.runner.progress);
    EXPECT_EQ(f.shard.runner.maxAttempts, 3u);
    EXPECT_TRUE(f.shard.journalDir.empty()); // in-process
    EXPECT_EQ(f.shard.killBudget, 2u);
    EXPECT_EQ(f.shard.checkpointEvery, 16u);
    EXPECT_FALSE(f.verbose);

    // A CSV on stdout turns the \r progress line off.
    ASSERT_TRUE(parse({}, f));
    EXPECT_FALSE(f.shard.runner.progress);
}

TEST(OrchestrationFlags, FlagsLandInTheirOptionsAndOthersPassThrough)
{
    OrchestrationFlags f;
    std::vector<std::string> rest;
    ASSERT_TRUE(parse({"--workloads", "a,b", "--workers", "4",
                       "--retries", "2", "--timeout-ms", "250",
                       "--no-progress", "--verbose", "--dry-run",
                       "--journal-dir", "jd", "--shards", "3",
                       "--resume", "--checkpoint-every", "5",
                       "--kill-budget", "7", "--csv", "x.csv"},
                      f, nullptr, &rest));
    EXPECT_EQ(rest, (std::vector<std::string>{"--workloads", "a,b",
                                              "--dry-run"}));
    EXPECT_EQ(f.shard.runner.workers, 4u);
    EXPECT_EQ(f.shard.runner.maxAttempts, 3u); // 2 retries + 1
    EXPECT_EQ(f.shard.runner.jobTimeout.count(), 250);
    EXPECT_FALSE(f.shard.runner.progress);
    EXPECT_TRUE(f.verbose);
    EXPECT_EQ(f.shard.journalDir, "jd");
    EXPECT_EQ(f.shard.shards, 3u);
    EXPECT_TRUE(f.shard.resume);
    EXPECT_EQ(f.shard.checkpointEvery, 5u);
    EXPECT_EQ(f.shard.killBudget, 7u);
    EXPECT_EQ(f.csvPath, "x.csv");
}

TEST(OrchestrationFlags, ShardingFlagsNeedAJournalDir)
{
    for (std::vector<std::string> args :
         std::vector<std::vector<std::string>>{{"--shards", "2"},
                                               {"--resume"},
                                               {"--checkpoint-every", "4"},
                                               {"--kill-budget", "3"}}) {
        OrchestrationFlags f;
        std::string err;
        EXPECT_FALSE(parse(args, f, &err)) << args[0];
        EXPECT_NE(err.find("--journal-dir"), std::string::npos) << err;
        args.insert(args.end(), {"--journal-dir", "jd"});
        EXPECT_TRUE(parse(args, f)) << args[0];
    }
}

TEST(OrchestrationFlags, GarbageNumbersAreRejectedNamingTheFlag)
{
    for (const auto &[flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"--workers", "abc"},
             {"--workers", "-1"},
             {"--workers", "99999999999"},
             {"--retries", "2x"},
             {"--retries", "4294967295"}, // N+1 attempts must fit
             {"--timeout-ms", "1.5"},
             {"--shards", ""},
             {"--checkpoint-every", " 8"},
             {"--kill-budget", "+2"}}) {
        OrchestrationFlags f;
        std::string err;
        EXPECT_FALSE(parse({"--journal-dir", "jd", flag, value}, f, &err))
            << flag << " '" << value << "'";
        EXPECT_NE(err.find(flag), std::string::npos) << err;
    }
}

} // namespace tmi::driver
