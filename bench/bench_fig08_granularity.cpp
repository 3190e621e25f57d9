/**
 * @file
 * Fig. 8 — distribution of memory access granularity: six HTC
 * applications (left) versus eleven SPLASH2-class conventional
 * applications (right). Measured from the generated access streams,
 * not just the configured weights.
 */
#include <map>

#include "bench_util.hpp"

#include "workloads/profile_stream.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

void
printDistribution(const std::vector<workloads::BenchProfile> &profiles)
{
    std::printf("%-12s", "bench");
    for (std::size_t g = 0; g < workloads::kNumGranularities; ++g)
        std::printf(" %5uB", workloads::kGranularitySizes[g]);
    std::printf("   mean\n");

    for (const auto &prof : profiles) {
        workloads::AddressLayout layout;
        layout.spmLocalBase = 0x1000'0000;
        layout.heapBase = 0x8000'0000;
        layout.heapSize = prof.heapWorkingSet;
        layout.streamBase = 0x9000'0000;
        workloads::ProfileStream stream(prof, layout, 60000, 99);

        std::map<std::uint8_t, std::uint64_t> hist;
        std::uint64_t total = 0;
        double mean = 0.0;
        isa::MicroOp op;
        while (stream.next(op) && op.kind != isa::OpKind::Halt) {
            if (!op.isMem())
                continue;
            ++hist[op.size];
            ++total;
            mean += op.size;
        }
        std::printf("%-12s", prof.name.c_str());
        for (std::size_t g = 0; g < workloads::kNumGranularities; ++g) {
            const double pct = total
                ? 100.0 * static_cast<double>(
                      hist[workloads::kGranularitySizes[g]]) /
                      static_cast<double>(total)
                : 0.0;
            std::printf(" %5.1f%%", pct);
        }
        std::printf("  %5.1fB\n", total ? mean / total : 0.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 8", "memory access granularity distribution");

    std::printf("\nHTC applications (left of Fig. 8):\n");
    printDistribution(workloads::htcProfiles());

    std::printf("\nConventional SPLASH2 applications (right of "
                "Fig. 8):\n");
    printDistribution(workloads::conventionalProfiles());

    note("");
    note("paper shape: HTC accesses concentrate at 1-8 bytes (KMP/RNC");
    note("byte-dominated, K-means at 4-8B); conventional applications");
    note("concentrate at 8-64 bytes.");
    return 0;
}
