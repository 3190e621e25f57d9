/**
 * @file
 * Shared helpers for the experiment harnesses. Each bench binary
 * regenerates one table or figure of the paper and prints the same
 * rows/series the paper reports (EXPERIMENTS.md maps them).
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "fault/fault_spec.hpp"
#include "sim/logging.hpp"
#include "sim/observability.hpp"
#include "workloads/profile.hpp"
#include "workloads/task.hpp"

namespace smarco::bench {

/** Print a figure/table banner. */
inline void
banner(const char *id, const char *title)
{
    std::printf("\n======================================================="
                "=================\n");
    std::printf("%s  --  %s\n", id, title);
    std::printf("========================================================="
                "===============\n");
}

inline void
note(const char *text)
{
    std::printf("  %s\n", text);
}

/** Result of one SmarCo chip run. */
struct SmarcoRun {
    chip::ChipMetrics metrics;
    /** Issue-slot utilisation (activity proxy for the power model). */
    double utilisation = 0.0;
    double dramBytes = 0.0;
};

/** Run count tasks of a profile on a SmarCo configuration. */
inline SmarcoRun
runSmarco(const chip::ChipConfig &cfg,
          const workloads::BenchProfile &prof, std::uint64_t count,
          std::uint64_t ops_override = 0, std::uint64_t seed = 17,
          Cycle max_cycles = 200'000'000)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, cfg);
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = seed;
    auto tasks = workloads::makeTaskSet(prof, tp);
    if (ops_override) {
        for (auto &t : tasks)
            t.numOps = ops_override;
    }
    chip.submit(tasks);
    auto campaign = fault::armFaultsFromCli(sim, chip);
    chip.runUntilDone(max_cycles);

    SmarcoRun run;
    run.metrics = chip.metrics();
    const double used = sim.stats().total("chip.core", ".slotsUsed");
    const double offered =
        sim.stats().total("chip.core", ".slotsOffered");
    run.utilisation = offered > 0.0 ? used / offered : 0.0;
    run.dramBytes = chip.dram().totalBytes();
    return run;
}

/** Run count tasks on the conventional baseline with T sw threads. */
inline baseline::BaselineMetrics
runBaseline(const baseline::BaselineParams &params,
            const workloads::BenchProfile &prof, std::uint64_t count,
            std::uint32_t threads, std::uint64_t ops_override = 0,
            std::uint64_t seed = 17, Cycle max_cycles = 400'000'000)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, params);
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = seed;
    auto tasks = workloads::makeTaskSet(prof, tp);
    if (ops_override) {
        for (auto &t : tasks)
            t.numOps = ops_override;
    }
    chip.spawnWorkers(threads, std::move(tasks));
    auto campaign = fault::armFaultsFromCli(sim, chip);
    sim.run(max_cycles);
    return chip.metrics();
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace smarco::bench
