/**
 * @file
 * Fig. 17 — per-core IPC of a TCG core as the live thread count
 * grows from 1 to 8 (4-wide issue, in-pair threads past 4). Includes
 * the DESIGN.md ablation: in-pair vs coarse-grained vs no switching.
 */
#include "bench_util.hpp"

#include "workloads/profile_stream.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

double
coreIpc(const workloads::BenchProfile &prof, std::uint32_t threads,
        core::ThreadScheme scheme)
{
    Simulator sim;
    auto cfg = chip::ChipConfig::scaled(1, 4);
    cfg.core.numThreads = threads;
    cfg.core.maxRunning = std::min<std::uint32_t>(threads, 4);
    cfg.core.scheme = scheme;
    chip::SmarcoChip chip(sim, cfg);
    // This harness attaches tasks to the core directly instead of
    // going through runSmarco, so arm --faults campaigns here too.
    auto campaign = fault::armFaultsFromCli(sim, chip);
    for (std::uint32_t t = 0; t < threads; ++t) {
        workloads::TaskSpec ts;
        ts.id = t;
        ts.profile = &prof;
        ts.numOps = 40000;
        ts.seed = 11 + t;
        chip.core(0).attachTask(
            ts,
            std::make_unique<workloads::ProfileStream>(
                prof, chip.layoutFor(ts, 0), ts.numOps, ts.seed),
            core::kNoTicket);
    }
    chip.runUntilDone(20'000'000);
    return chip.core(0).ipc();
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 17", "IPC of one TCG core vs thread count (1..8)");

    std::printf("%-12s", "bench");
    for (std::uint32_t t = 1; t <= 8; ++t)
        std::printf("  T=%u  ", t);
    std::printf("\n");
    for (const auto &prof : workloads::htcProfiles()) {
        std::printf("%-12s", prof.name.c_str());
        for (std::uint32_t t = 1; t <= 8; ++t)
            std::printf(" %5.2f ",
                        coreIpc(prof, t, core::ThreadScheme::InPair));
        std::printf("\n");
    }

    std::printf("\nAblation (8 threads): thread scheme comparison\n");
    std::printf("%-12s %10s %14s %10s\n", "bench", "in-pair",
                "coarse-grain", "no-switch");
    for (const auto &prof : workloads::htcProfiles()) {
        std::printf("%-12s %10.2f %14.2f %10.2f\n", prof.name.c_str(),
                    coreIpc(prof, 8, core::ThreadScheme::InPair),
                    coreIpc(prof, 8, core::ThreadScheme::CoarseGrained),
                    coreIpc(prof, 8, core::ThreadScheme::NoSwitch));
    }

    note("");
    note("paper shape: IPC grows almost linearly from 1 to 4 threads,");
    note("then slowly from 4 to 8 as in-pair threads hide memory");
    note("latency; search saturates early and barely gains (4.2.1).");
    return 0;
}
