/**
 * @file
 * MapReduce WordCount on SmarCo (Section 3.6, Fig. 15).
 *
 * The framework is functional + timed: the map/reduce lambdas below
 * compute the real word counts on the host, while matching simulated
 * tasks run on the chip so the reported cycle counts include
 * scheduling, SPM staging, NoC and memory behaviour.
 *
 *   $ ./mapreduce_wordcount            # built-in sample text
 *   $ ./mapreduce_wordcount file.txt   # count words of a file
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "runtime/mapreduce.hpp"
#include "sim/observability.hpp"
#include "workloads/profile.hpp"

using namespace smarco;

namespace {

std::string
sampleText()
{
    std::string text;
    const char *lines[] = {
        "the quick brown fox jumps over the lazy dog",
        "high throughput computing pursues tasks per unit time",
        "the winner is the team with more cars passing the line",
        "datacenters serve many users before the deadline",
        "the fox and the dog chase tasks through the ring",
    };
    for (int rep = 0; rep < 40; ++rep)
        for (const char *l : lines)
            text += std::string(l) + "\n";
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = parseCommandLine(argc, argv, "[file.txt]");
    std::string input;
    if (!args.empty()) {
        std::ifstream in(args[0]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", args[0].c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        input = ss.str();
    } else {
        input = sampleText();
    }

    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(4, 16));

    // WordCount expressed against the MapReduce API.
    runtime::MapReduceJob::Config cfg;
    cfg.profile = &workloads::htcProfile("wordcount");
    cfg.sliceBytes = 2048;
    runtime::MapReduceJob job(
        [](const std::string &slice, runtime::Emitter &out) {
            std::string word;
            for (char c : slice) {
                if (c == ' ' || c == '\n' || c == '\t') {
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
        [](const std::string &,
           const std::vector<std::string> &values) {
            std::uint64_t n = 0;
            for (const auto &v : values)
                n += std::strtoull(v.c_str(), nullptr, 10);
            return std::to_string(n);
        },
        cfg);

    auto campaign = fault::armFaultsFromCli(sim, chip);
    const auto counts = job.run(chip, input);

    // Top-10 words by count.
    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto &[word, count] : counts)
        ranked.emplace_back(std::strtoull(count.c_str(), nullptr, 10),
                            word);
    std::sort(ranked.rbegin(), ranked.rend());

    std::printf("input: %zu bytes, %zu distinct words\n\n",
                input.size(), counts.size());
    std::printf("top words:\n");
    for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size());
         ++i)
        std::printf("  %-16s %llu\n", ranked[i].second.c_str(),
                    static_cast<unsigned long long>(ranked[i].first));

    const auto &st = job.stats();
    std::printf("\nsimulated execution (Fig. 15 flow):\n");
    std::printf("  map    : %llu tasks, %llu cycles\n",
                static_cast<unsigned long long>(st.mapTasks),
                static_cast<unsigned long long>(st.mapCycles));
    std::printf("  reduce : %llu tasks, %llu cycles\n",
                static_cast<unsigned long long>(st.reduceTasks),
                static_cast<unsigned long long>(st.reduceCycles));
    std::printf("  total  : %llu cycles (%.2f us at 1.5 GHz)\n",
                static_cast<unsigned long long>(st.totalCycles),
                static_cast<double>(st.totalCycles) / 1500.0);
    return 0;
}
