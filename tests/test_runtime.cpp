/**
 * @file
 * Tests of the functional MapReduce framework (Section 3.6):
 * functional correctness of real results plus simulated-time
 * accounting.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "runtime/mapreduce.hpp"
#include "workloads/profile.hpp"

using namespace smarco;
using namespace smarco::runtime;

namespace {

chip::ChipConfig
smallChip()
{
    return chip::ChipConfig::scaled(2, 4);
}

MapReduceJob::Config
wcConfig()
{
    MapReduceJob::Config cfg;
    cfg.profile = &workloads::htcProfile("wordcount");
    cfg.sliceBytes = 64;
    return cfg;
}

MapReduceJob
wordCountJob()
{
    return MapReduceJob(
        [](const std::string &slice, Emitter &out) {
            std::string word;
            for (char c : slice) {
                if (c == ' ' || c == '\n') {
                    if (!word.empty())
                        out.emit(word, "1");
                    word.clear();
                } else {
                    word.push_back(c);
                }
            }
            if (!word.empty())
                out.emit(word, "1");
        },
        [](const std::string &, const std::vector<std::string> &vals) {
            std::uint64_t total = 0;
            for (const auto &v : vals)
                total += std::strtoull(v.c_str(), nullptr, 10);
            return std::to_string(total);
        },
        wcConfig());
}

} // namespace

TEST(MapReduce, SliceTextRespectsWordBoundaries)
{
    const std::string text = "alpha beta gamma delta epsilon";
    const auto slices = sliceText(text, 10);
    ASSERT_GE(slices.size(), 2u);
    std::string rejoined;
    for (const auto &s : slices)
        rejoined += s;
    EXPECT_EQ(rejoined, text);
    // No word is split across slices.
    for (std::size_t i = 0; i + 1 < slices.size(); ++i)
        EXPECT_TRUE(slices[i].empty() || slices[i].back() == ' ' ||
                    slices[i + 1].front() == ' ');
}

TEST(MapReduce, WordCountIsFunctionallyCorrect)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, smallChip());
    auto job = wordCountJob();
    const auto result = job.run(chip,
        "the quick brown fox jumps over the lazy dog the fox");
    EXPECT_EQ(result.at("the"), "3");
    EXPECT_EQ(result.at("fox"), "2");
    EXPECT_EQ(result.at("dog"), "1");
    EXPECT_EQ(result.size(), 8u);
}

TEST(MapReduce, StatsAccountSimulatedTime)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, smallChip());
    auto job = wordCountJob();
    std::string input;
    for (int i = 0; i < 200; ++i)
        input += "word" + std::to_string(i % 17) + " ";
    job.run(chip, input);
    const auto &st = job.stats();
    EXPECT_GT(st.mapTasks, 1u);
    EXPECT_GT(st.reduceTasks, 0u);
    EXPECT_GT(st.mapCycles, 0u);
    EXPECT_GT(st.reduceCycles, 0u);
    EXPECT_GE(st.totalCycles, st.mapCycles);
    EXPECT_GT(st.pairsEmitted, 100u);
}

TEST(MapReduce, EmptyInputYieldsEmptyResult)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, smallChip());
    auto job = wordCountJob();
    const auto result = job.run(chip, "");
    EXPECT_TRUE(result.empty());
}

TEST(MapReduce, MaxReduceFindsMaximumPerKey)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, smallChip());
    MapReduceJob::Config cfg;
    cfg.profile = &workloads::htcProfile("terasort");
    cfg.sliceBytes = 32;
    MapReduceJob job(
        [](const std::string &slice, Emitter &out) {
            // Input records: "key:value" separated by spaces.
            std::string tok;
            for (char c : slice) {
                if (c == ' ') {
                    if (auto p = tok.find(':'); p != std::string::npos)
                        out.emit(tok.substr(0, p), tok.substr(p + 1));
                    tok.clear();
                } else {
                    tok.push_back(c);
                }
            }
            if (auto p = tok.find(':'); p != std::string::npos)
                out.emit(tok.substr(0, p), tok.substr(p + 1));
        },
        [](const std::string &, const std::vector<std::string> &vals) {
            long best = -1;
            for (const auto &v : vals)
                best = std::max(best, std::strtol(v.c_str(), nullptr, 10));
            return std::to_string(best);
        },
        cfg);
    const auto result =
        job.run(chip, "a:5 b:2 a:9 c:7 b:11 a:1");
    EXPECT_EQ(result.at("a"), "9");
    EXPECT_EQ(result.at("b"), "11");
    EXPECT_EQ(result.at("c"), "7");
}
