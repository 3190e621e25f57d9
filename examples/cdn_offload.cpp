/**
 * @file
 * CDN chunk-service offload (paper Section 1 + Section 6).
 *
 * The paper's motivating study shows a conventional server wasting a
 * Xeon on NIC-bound CDN traffic. SmarCo is built as a PCIe
 * accelerator: this example serves the same chunk-processing load on
 * (a) the conventional chip and (b) a SmarCo accelerator, and
 * compares throughput per watt.
 *
 *   $ ./cdn_offload [clients]
 */
#include <cstdio>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "power/power_model.hpp"
#include "sim/observability.hpp"
#include "workloads/cdn.hpp"
#include "workloads/task.hpp"

using namespace smarco;

int
main(int argc, char **argv)
{
    const std::uint64_t clients =
        countArg(parseCommandLine(argc, argv, "[clients]"), 400);

    workloads::CdnWorkload cdn;
    // Host-side profile: everything cacheable, connection table in
    // DRAM. Accelerator-side profile: the same work with the chunk
    // payload and per-connection slice DMA-staged into the SPM.
    const auto host_profile = cdn.chunkProfile(clients);
    auto accel_profile = host_profile;
    accel_profile.name = "cdn-chunk-spm";
    accel_profile.fracSpmLocal = 0.58;
    accel_profile.fracHeap = 0.10;
    accel_profile.heapWorkingSet = 32 * 1024;
    accel_profile.taskInputBytes = cdn.params().chunkBytes / 4;
    accel_profile.validate();
    const std::uint64_t chunks = 128; // service batch under test

    std::printf("CDN offload: %llu clients (%.1f Gbps offered), "
                "%llu chunk tasks of %llu ops\n\n",
                static_cast<unsigned long long>(clients),
                static_cast<double>(clients) * cdn.params().videoMbps /
                    1000.0,
                static_cast<unsigned long long>(chunks),
                static_cast<unsigned long long>(
                    host_profile.opsPerTask));

    // (a) Conventional server path.
    double xeon_rate, xeon_watts;
    {
        Simulator sim;
        baseline::BaselineParams params;
        baseline::BaselineChip host(sim, params);
        workloads::TaskSetParams tp;
        tp.count = chunks;
        tp.seed = 3;
        host.spawnWorkers(48, workloads::makeTaskSet(host_profile, tp));
        auto campaign = fault::armFaultsFromCli(sim, host);
        sim.run(2'000'000'000);
        const auto m = host.metrics();
        xeon_rate = m.tasksPerMCycle() * params.freqGHz; // tasks/ms
        xeon_watts = power::xeonPowerW(m.slotUtilisation());
        std::printf("conventional Xeon : %8.1f chunks/ms at %.0f W\n",
                    xeon_rate * 1e3 / 1e3, xeon_watts);
    }

    // (b) SmarCo accelerator behind PCIe.
    double smarco_rate, smarco_watts;
    {
        Simulator sim;
        const auto cfg = chip::ChipConfig::prototype40nm();
        chip::SmarcoChip accel(sim, cfg);
        workloads::TaskSetParams tp;
        tp.count = chunks;
        tp.seed = 3;
        accel.submit(workloads::makeTaskSet(accel_profile, tp));
        auto campaign = fault::armFaultsFromCli(sim, accel);
        accel.runUntilDone();
        const auto m = accel.metrics();
        smarco_rate = m.tasksPerMCycle() * cfg.freqGHz;
        smarco_watts = power::smarcoPower(cfg, power::TechNode::nm40(),
                                          0.3 + 0.7 * m.slotUtilisation())
                           .totalPowerW();
        std::printf("SmarCo prototype  : %8.1f chunks/ms at %.0f W\n",
                    smarco_rate * 1e3 / 1e3, smarco_watts);
    }

    std::printf("\nthroughput ratio      : %.2fx\n",
                smarco_rate / xeon_rate);
    std::printf("throughput-per-watt   : %.2fx\n",
                (smarco_rate / smarco_watts) /
                    (xeon_rate / xeon_watts));
    std::printf("\nthe accelerator frees the host CPU for request "
                "handling while\nserving chunk processing at a "
                "fraction of the energy.\n");
    return 0;
}
