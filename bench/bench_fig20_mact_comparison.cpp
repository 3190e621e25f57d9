/**
 * @file
 * Fig. 20 — MACT versus the conventional structure (no collection):
 * execution speedup, memory access request latency, NoC bandwidth
 * utilisation, and the number of memory access requests, per
 * benchmark. Also runs the DESIGN.md ablation of the direct star
 * datapath under the same load.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 20", "MACT vs conventional (per benchmark, "
                      "normalised to MACT off)");

    std::printf("%-12s %9s %12s %11s %11s\n", "bench", "speedup",
                "req latency", "NoC util", "#requests");

    for (const auto &prof : workloads::htcProfiles()) {
        auto cfg_on = chip::ChipConfig::scaled(4, 8);
        cfg_on.mact.enabled = true;
        auto cfg_off = cfg_on;
        cfg_off.mact.enabled = false;

        const auto on = runSmarco(cfg_on, prof, 96, 10000, 29);
        const auto off = runSmarco(cfg_off, prof, 96, 10000, 29);

        const double speedup = static_cast<double>(off.cycles) /
                               static_cast<double>(on.cycles);
        const double lat_ratio = on.avgMemLatency / off.avgMemLatency;
        const double noc_ratio = off.nocUtilisation > 0.0
            ? on.nocUtilisation / off.nocUtilisation
            : 0.0;
        const double req_ratio =
            static_cast<double>(on.dramRequests) /
            static_cast<double>(off.dramRequests);
        std::printf("%-12s %8.3fx %11.3fx %10.3fx %10.3fx\n",
                    prof.name.c_str(), speedup, lat_ratio, noc_ratio,
                    req_ratio);
    }

    std::printf("\nAblation: direct star datapath on/off "
                "(RNC, realtime traffic)\n");
    {
        const auto &rnc = workloads::htcProfile("rnc");
        auto mk = [&](bool direct) {
            Simulator sim;
            auto cfg = chip::ChipConfig::scaled(4, 8);
            cfg.directPath.enabled = direct;
            chip::SmarcoChip chip(sim, cfg);
            workloads::TaskSetParams tp;
            tp.count = 96;
            tp.seed = 31;
            tp.realtime = true;
            auto tasks = workloads::makeTaskSet(rnc, tp);
            for (auto &t : tasks)
                t.numOps = 10000;
            chip.submit(tasks);
            auto campaign = fault::armFaultsFromCli(sim, chip);
            chip.runUntilDone(200'000'000);
            return chip.metrics();
        };
        const auto with_dp = mk(true);
        const auto without_dp = mk(false);
        std::printf("  direct path ON : cycles=%llu  mem latency=%.1f\n",
                    static_cast<unsigned long long>(with_dp.cycles),
                    with_dp.avgMemLatency);
        std::printf("  direct path OFF: cycles=%llu  mem latency=%.1f\n",
                    static_cast<unsigned long long>(without_dp.cycles),
                    without_dp.avgMemLatency);
    }

    note("");
    note("paper shape: benchmarks with many small discrete accesses");
    note("(KMP, RNC, wordcount) speed up and issue far fewer memory");
    note("requests; K-means is at/below break-even because collection");
    note("adds latency; NoC bandwidth utilisation rises (4.2.3).");
    return 0;
}
