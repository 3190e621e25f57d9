/**
 * @file
 * Quickstart: build a SmarCo chip, run a batch of HTC tasks through
 * the laxity-aware schedulers, and read the results.
 *
 *   $ ./quickstart [num_tasks]
 *
 * This walks the core public API surface:
 *   - Simulator: the cycle-driven kernel owning clock/events/stats
 *   - ChipConfig: presets (simulated256, prototype40nm, scaled)
 *   - SmarcoChip: the assembled 256-core processor
 *   - workloads::makeTaskSet: benchmark-profile task generation
 *   - ChipMetrics / StatRegistry: results
 */
#include <cstdio>

#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "sim/observability.hpp"
#include "workloads/profile.hpp"
#include "workloads/task.hpp"

using namespace smarco;

int
main(int argc, char **argv)
{
    const std::uint64_t num_tasks =
        countArg(parseCommandLine(argc, argv, "[num_tasks]"), 256);

    // 1. A Simulator owns simulated time, the event queue, and the
    //    statistics registry.
    Simulator sim;

    // 2. Pick a chip configuration. scaled(4, 16) is a quarter-size
    //    chip (4 sub-rings x 16 cores) that runs fast on a laptop;
    //    ChipConfig::simulated256() is the paper's full chip.
    auto cfg = chip::ChipConfig::scaled(4, 16);
    std::printf("chip: %s  (%u cores, %u hardware threads)\n",
                cfg.name.c_str(), cfg.numCores(),
                cfg.numThreadsTotal());

    // 3. Build the chip: TCG cores, hierarchical ring NoC, MACTs,
    //    direct datapath, DRAM, and the hardware schedulers.
    chip::SmarcoChip chip(sim, cfg);

    // 4. Generate a task set from one of the six HTC benchmark
    //    profiles and hand it to the main scheduler.
    const auto &profile = workloads::htcProfile("wordcount");
    workloads::TaskSetParams tp;
    tp.count = num_tasks;
    tp.seed = 42;
    chip.submit(workloads::makeTaskSet(profile, tp));

    // Optional: --faults=campaign.json arms a fault campaign.
    auto campaign = fault::armFaultsFromCli(sim, chip);

    // 5. Run until the chip drains.
    const Cycle end = chip.runUntilDone();

    // 6. Read whole-chip metrics...
    const auto m = chip.metrics();
    std::printf("\nfinished at cycle %llu\n",
                static_cast<unsigned long long>(end));
    std::printf("tasks completed : %llu\n",
                static_cast<unsigned long long>(m.tasksCompleted));
    std::printf("micro-ops       : %llu  (aggregate IPC %.1f)\n",
                static_cast<unsigned long long>(m.opsCommitted),
                m.aggregateIpc());
    std::printf("throughput      : %.1f tasks per Mcycle "
                "(%.2f Mtasks/s at %.1f GHz)\n", m.tasksPerMCycle(),
                m.tasksPerMCycle() * cfg.freqGHz / 1e3, cfg.freqGHz);
    std::printf("mem latency     : %.1f cycles (blocking requests)\n",
                m.avgMemLatency);
    std::printf("DRAM requests   : %llu\n",
                static_cast<unsigned long long>(m.dramRequests));
    std::printf("NoC utilisation : %.1f%%\n",
                100.0 * m.nocUtilisation);

    // ...or drill into any component stat by name.
    std::printf("\nper-component stats (sample):\n");
    for (const char *name : {"chip.mact00.batches",
                             "chip.mact00.batchSize",
                             "chip.noc.endToEnd",
                             "chip.core000.pairSwitches"}) {
        if (const Stat *s = sim.stats().find(name))
            std::printf("  %-28s %.2f\n", name, s->value());
    }
    return 0;
}
