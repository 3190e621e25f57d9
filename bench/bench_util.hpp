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
#include "power/power_model.hpp"
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

/**
 * Parse a bench's command line (see parseCommandLine()). A bench takes
 * no argument of its own unless `usage` offers "[--quick]"; the result
 * is true when that reduced sweep was asked for.
 */
inline bool
parseArgs(int argc, char **argv, const char *usage = "")
{
    return !parseCommandLine(argc, argv, usage).empty();
}

/**
 * A bench's PASS/FAIL checks: check() prints one line per check, and
 * exitCode() is non-zero when any of them failed.
 */
class Checks
{
  public:
    void check(const std::string &name, bool ok,
               const std::string &detail = "")
    {
        std::printf("  %s %s%s%s\n", ok ? "PASS" : "FAIL",
                    name.c_str(), detail.empty() ? "" : ": ",
                    detail.c_str());
        if (!ok)
            ++failures_;
    }

    int exitCode() const { return failures_ == 0 ? 0 : 1; }

  private:
    int failures_ = 0;
};

/** Four cores (8 SMT threads) with a 4 MiB LLC: a conventional chip
 *  small enough for the kernel and resilience sweeps. */
inline baseline::BaselineParams
smallBaseline()
{
    baseline::BaselineParams bp;
    bp.numCores = 4;
    bp.llc = mem::CacheParams{"llc", 4 * 1024 * 1024, 16, 64, 38};
    return bp;
}

/** Run count tasks of a profile on a SmarCo configuration. */
inline chip::ChipMetrics
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
    return chip.metrics();
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

/** Per-profile results of a SmarCo-versus-Xeon comparison. */
struct XeonComparison {
    std::vector<double> speedups;
    std::vector<double> efficiencies;
};

/**
 * Figs. 22 and 26: run count tasks of every HTC profile (seed) on cfg
 * and on the 48-thread Xeon baseline, and print one table row each.
 * Performance is task throughput in real time:
 *   speedup = (tasks/cycle_smarco x cfg GHz) /
 *             (tasks/cycle_xeon   x Xeon GHz)
 * Energy efficiency divides each side by its operating power: the
 * analytical SmarCo model at tech and activity 0.3 + 0.7 x slot
 * utilisation, the Xeon's 165 W TDP curve at its slot utilisation.
 * label names the SmarCo columns ("SmarCo", "proto").
 */
inline XeonComparison
compareWithXeon(const chip::ChipConfig &cfg, const power::TechNode &tech,
                std::uint64_t count, std::uint64_t seed,
                const std::string &label)
{
    const baseline::BaselineParams xeon{};
    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "bench",
                label.c_str(), "Xeon", "speedup", (label + "W").c_str(),
                "XeonW", "energyEff");
    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "",
                "(t/Mcy)", "(t/Mcy)", "", "", "", "");

    XeonComparison out;
    for (const auto &prof : workloads::htcProfiles()) {
        const auto sm = runSmarco(cfg, prof, count, 0, seed);
        const auto xe = runBaseline(xeon, prof, count, 48, 0, seed,
                                    /*max_cycles=*/2'000'000'000);

        const double sm_rate = sm.tasksPerMCycle() * cfg.freqGHz;
        const double xe_rate = xe.tasksPerMCycle() * xeon.freqGHz;
        const double speedup = sm_rate / xe_rate;

        const double sm_watts =
            power::smarcoPower(cfg, tech,
                               0.3 + 0.7 * sm.slotUtilisation())
                .totalPowerW();
        const double xe_watts = power::xeonPowerW(xe.slotUtilisation());
        const double eff = speedup * xe_watts / sm_watts;

        out.speedups.push_back(speedup);
        out.efficiencies.push_back(eff);
        std::printf("%-12s %10.1f %10.1f %8.2fx %9.1f %9.1f %9.2fx\n",
                    prof.name.c_str(), sm.tasksPerMCycle(),
                    xe.tasksPerMCycle(), speedup, sm_watts, xe_watts,
                    eff);
    }
    return out;
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
