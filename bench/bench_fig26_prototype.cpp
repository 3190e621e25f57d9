/**
 * @file
 * Fig. 26 — energy efficiency of the taped-out TSMC 40 nm prototype
 * (256 threads at most) over the Xeon E7-8890V4. Same methodology as
 * Fig. 22 but with the prototype configuration and the 40 nm power
 * model.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 26", "prototype (TSMC 40 nm, 32 cores / 256 threads) "
                      "energy efficiency vs Xeon E7-8890V4");

    const auto cmp =
        compareWithXeon(chip::ChipConfig::prototype40nm(),
                        power::TechNode::nm40(), 768, 63, "proto");

    std::printf("\nmean energy efficiency = %.2fx   "
                "(paper: 3.85x, range 2.05x..6.84x)\n",
                geomean(cmp.efficiencies));

    note("");
    note("paper shape: the small prototype loses raw speed (8x fewer");
    note("threads than the simulated chip) but still beats the Xeon on");
    note("energy efficiency on every benchmark (Section 4.4).");
    return 0;
}
