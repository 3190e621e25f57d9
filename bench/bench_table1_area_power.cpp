/**
 * @file
 * Table 1 — area overheads and power consumptions of the SmarCo
 * design at the 32 nm node (McPAT/CACTI/Orion-style analytical
 * models), plus the 40 nm prototype and a 14 nm projection.
 */
#include "bench_util.hpp"

#include "power/power_model.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

void
printReport(const char *title, const power::ChipPowerReport &report)
{
    std::printf("\n%s\n", title);
    std::printf("%-18s %12s %12s\n", "Main Components", "Area (mm2)",
                "Power (Watt)");
    for (const auto &c : report.components)
        std::printf("%-18s %12.2f %12.2f\n", c.name.c_str(),
                    c.areaMm2, c.totalW());
    std::printf("%-18s %12.2f %12.2f\n", "Total",
                report.totalAreaMm2(), report.totalPowerW());
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Table 1", "area and power of SmarCo (1.5 GHz, 32 nm)");

    const auto full = chip::ChipConfig::simulated256();
    printReport("32 nm (paper's Table 1 configuration):",
                power::smarcoPower(full, power::TechNode::nm32()));
    printReport("TSMC 40 nm prototype (32 cores, 256 threads):",
                power::smarcoPower(chip::ChipConfig::prototype40nm(),
                                   power::TechNode::nm40()));
    printReport("14 nm projection (full 256-core chip):",
                power::smarcoPower(full, power::TechNode::nm14()));

    note("");
    note("paper Table 1 (32 nm): Cores 634.32/209.91, Ring 57.43/14.55,");
    note("MACT 1.43/0.14, SPM+Cache 44.90/1.84, MC+PHY 12.92/13.65,");
    note("Total 751.00 mm2 / 240.09 W.");
    return 0;
}
