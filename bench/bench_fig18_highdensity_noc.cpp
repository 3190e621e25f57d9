/**
 * @file
 * Fig. 18 — throughput-rate improvement of the high-density NoC as
 * the channel slice width shrinks from 16 to 2 bytes. A saturated
 * sub-ring carries packets whose sizes follow each benchmark's
 * memory-access-granularity distribution; the metric is delivered
 * packets per unit time, normalised to the 16-byte slicing (the
 * conventional-most configuration the paper compares against).
 */
#include "bench_util.hpp"

#include "noc/ring.hpp"
#include "sim/random.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

/** Closed-loop saturation throughput of one sub-ring (packets/cycle). */
double
ringThroughput(const workloads::BenchProfile &prof,
               std::uint32_t slice_bytes)
{
    Simulator sim;
    noc::RingParams rp;
    rp.name = "subRing";
    rp.numStops = 17;              // 16 cores + gateway
    rp.fixedBytesPerDir = 8;       // 256-bit sub-ring
    rp.flexBytes = 16;
    rp.sliceBytes = slice_bytes;
    noc::Ring ring(sim, rp, "ring");

    Rng rng(1234, slice_bytes);
    DiscreteDist gran(prof.granularityWeights);
    std::uint64_t delivered = 0;
    for (std::uint32_t s = 0; s < rp.numStops; ++s)
        ring.setHandler(s, [&delivered](noc::Packet &&) {
            ++delivered;
        });

    const int warmup = 500, window = 4000;
    std::uint64_t measured = 0;
    for (int cycle = 0; cycle < warmup + window; ++cycle) {
        if (cycle == warmup)
            measured = delivered;
        // Every stop keeps offering memory-access packets: payload is
        // the access granularity plus a small header flit.
        for (std::uint32_t s = 0; s < rp.numStops; ++s) {
            noc::Packet p;
            p.payloadBytes =
                workloads::kGranularitySizes[gran.sample(rng)] + 4;
            const std::uint32_t dst = static_cast<std::uint32_t>(
                (s + 1 + rng.nextBelow(rp.numStops - 1)) % rp.numStops);
            if (dst != s)
                ring.inject(s, dst, std::move(p));
        }
        sim.run(1);
    }
    return static_cast<double>(delivered - measured) /
           static_cast<double>(window);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 18", "throughput improvement vs channel slice width "
                      "(normalised to 16-byte slices)");

    const std::uint32_t slices[] = {16, 8, 4, 2};
    std::printf("%-12s %10s %10s %10s %10s   (packets/cycle @16B)\n",
                "bench", "16B", "8B", "4B", "2B");
    for (const auto &prof : workloads::htcProfiles()) {
        double base = 0.0;
        std::printf("%-12s", prof.name.c_str());
        for (std::uint32_t s : slices) {
            const double tput = ringThroughput(prof, s);
            if (s == 16)
                base = tput;
            std::printf(" %9.2fx", base > 0.0 ? tput / base : 0.0);
        }
        std::printf("   (%.2f)\n", base);
    }

    note("");
    note("paper shape: throughput rises as slices shrink; KMP and RNC");
    note("(byte-granularity) keep gaining from 4B to 2B, K-means gains");
    note("almost nothing below 8B (Section 4.2.2).");
    return 0;
}
