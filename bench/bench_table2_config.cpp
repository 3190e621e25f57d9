/**
 * @file
 * Table 2 — hardware configurations of the Xeon E7-8890V4 baseline
 * and SmarCo, printed from the actual model parameters so the table
 * cannot drift from what the simulators implement.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Table 2", "parameters of Xeon E7-8890V4 and SmarCo");

    const auto cfg = chip::ChipConfig::simulated256();
    baseline::BaselineParams xeon;

    const double smarco_l1i =
        cfg.numCores() * cfg.core.icache.sizeBytes / (1024.0 * 1024.0);
    const double smarco_l1d =
        cfg.numCores() * cfg.core.dcache.sizeBytes / (1024.0 * 1024.0);
    const double smarco_spm =
        cfg.numCores() * cfg.core.spm.sizeBytes / (1024.0 * 1024.0);
    const double smarco_bw =
        cfg.dram.channels * cfg.dram.bytesPerCycle * cfg.freqGHz;

    std::printf("%-12s | %-28s | %-28s\n", "", "Xeon E7-8890V4",
                "SmarCo");
    std::printf("%.88s\n",
                "-----------------------------------------------------"
                "-----------------------------------");
    std::printf("%-12s | %2u cores, %2u threads        | %3u cores, "
                "%4u threads\n", "Core", xeon.numCores,
                xeon.numCores * xeon.smtPerCore, cfg.numCores(),
                cfg.numThreadsTotal());
    std::printf("%-12s | %.1f GHz                     | %.1f GHz\n",
                "", xeon.freqGHz, cfg.freqGHz);
    std::printf("%-12s | %.2f MB L1I$, %.2f MB L1D$  | %.0f MB L1I$, "
                "%.0f MB L1D$,\n", "Cache & SPM",
                xeon.numCores * xeon.l1i.sizeBytes / (1024.0 * 1024.0),
                xeon.numCores * xeon.l1d.sizeBytes / (1024.0 * 1024.0),
                smarco_l1i, smarco_l1d);
    std::printf("%-12s | %.0f MB L2$, %.0f MB LLC      | %.0f MB SPM\n",
                "",
                xeon.numCores * xeon.l2.sizeBytes / (1024.0 * 1024.0),
                xeon.llc.sizeBytes / (1024.0 * 1024.0), smarco_spm);
    std::printf("%-12s | QPI                          | hierarchy "
                "ring,\n", "NoC");
    std::printf("%-12s |                              |   sub-ring "
                "%u-bit, main %u-bit\n", "",
                (cfg.noc.subFixedBytesPerDir * 2 + cfg.noc.subFlexBytes)
                    * 8,
                (cfg.noc.mainFixedBytesPerDir * 2 +
                 cfg.noc.mainFlexBytes) * 8);
    std::printf("%-12s | 256 GB, %.0f GB/s             | 64 GB, "
                "%.1f GB/s\n", "Memory",
                xeon.dram.channels * xeon.dram.bytesPerCycle *
                    xeon.freqGHz,
                smarco_bw);
    std::printf("%-12s | 14 nm                        | 32 nm "
                "(evaluation node)\n", "Process");
    std::printf("%-12s | 165 W                        | 240 W "
                "(Table 1)\n", "Power");
    std::printf("%-12s | -                            | 751 mm2 "
                "(Table 1)\n", "Die Area");

    note("");
    note("values printed from the live model parameters; compare with");
    note("the paper's Table 2.");
    return 0;
}
