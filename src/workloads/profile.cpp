#include "workloads/profile.hpp"

#include <cmath>

#include "sim/logging.hpp"

namespace smarco::workloads {

void
BenchProfile::validate() const
{
    const double mix = fracMem + fracBranch + fracMul + fracFp;
    if (mix > 1.0 + 1e-9)
        panic("profile %s: instruction mix sums to %f > 1", name.c_str(),
              mix);
    const double mem = fracSpmLocal + fracSpmRemote + fracHeap;
    if (mem > 1.0 + 1e-9)
        panic("profile %s: memory class split sums to %f > 1",
              name.c_str(), mem);
    if (granularityWeights.size() != kNumGranularities)
        panic("profile %s: expected %zu granularity weights, got %zu",
              name.c_str(), kNumGranularities, granularityWeights.size());
    if (heapWorkingSet == 0 || streamWorkingSet == 0)
        panic("profile %s: zero working set", name.c_str());
    if (!std::isfinite(heapZipf) || heapZipf < 0.0)
        panic("profile %s: heap Zipf exponent %f is not finite and >= 0",
              name.c_str(), heapZipf);
    if (opsPerTask == 0)
        panic("profile %s: zero opsPerTask", name.c_str());
}

namespace {

/**
 * Calibrated HTC profiles. Granularity weights follow the Fig. 8
 * characterisation: HTC applications are dominated by 1-8 byte
 * accesses; K-means sits at 4-8 bytes (floats), KMP/RNC are
 * byte/half-word heavy.
 */
std::vector<BenchProfile>
makeHtcProfiles()
{
    std::vector<BenchProfile> v;

    BenchProfile wc;
    wc.name = "wordcount";
    wc.fracMem = 0.38;
    wc.fracLoadOfMem = 0.68;
    wc.fracBranch = 0.16;
    wc.fracMul = 0.01;
    wc.branchMissRate = 0.055;
    wc.ilp = 2.2;
    wc.granularityWeights = {30, 26, 24, 12, 5, 2, 1};
    wc.fracSpmLocal = 0.64;
    wc.fracSpmRemote = 0.04;
    wc.fracHeap = 0.10;
    wc.heapWorkingSet = 32 * 1024;
    wc.heapZipf = 1.1;
    wc.opsPerTask = 24000;
    wc.instrFootprint = 5 * 1024;
    wc.taskInputBytes = 10 * 1024;
    wc.streamWorkingSet = 16 * 1024 * 1024;
    v.push_back(wc);

    BenchProfile ts;
    ts.name = "terasort";
    ts.fracMem = 0.42;
    ts.fracLoadOfMem = 0.60;
    ts.fracBranch = 0.13;
    ts.fracMul = 0.01;
    ts.branchMissRate = 0.075;
    ts.ilp = 2.0;
    ts.granularityWeights = {10, 16, 28, 26, 12, 5, 3};
    ts.fracSpmLocal = 0.58;
    ts.fracSpmRemote = 0.06;
    ts.fracHeap = 0.10;
    ts.heapWorkingSet = 48 * 1024;
    ts.heapZipf = 1.0;
    ts.opsPerTask = 28000;
    ts.instrFootprint = 7 * 1024;
    ts.taskInputBytes = 12 * 1024;
    ts.streamWorkingSet = 32 * 1024 * 1024;
    v.push_back(ts);

    BenchProfile se;
    se.name = "search";
    // "search benchmark is characterized by lower memory instruction"
    se.fracMem = 0.20;
    se.fracLoadOfMem = 0.78;
    se.fracBranch = 0.18;
    se.fracMul = 0.03;
    se.branchMissRate = 0.05;
    se.ilp = 3.0;
    se.granularityWeights = {14, 20, 30, 20, 10, 4, 2};
    se.fracSpmLocal = 0.66;
    se.fracSpmRemote = 0.04;
    se.fracHeap = 0.15;
    se.heapWorkingSet = 24 * 1024;
    se.heapZipf = 1.2;
    se.streamLoadBlocking = 0.05;
    se.opsPerTask = 22000;
    se.instrFootprint = 12 * 1024;
    se.taskInputBytes = 8 * 1024;
    se.streamWorkingSet = 32 * 1024 * 1024;
    v.push_back(se);

    BenchProfile km;
    km.name = "kmeans";
    km.fracMem = 0.34;
    km.fracLoadOfMem = 0.72;
    km.fracBranch = 0.08;
    km.fracMul = 0.02;
    km.fracFp = 0.24;
    km.branchMissRate = 0.025;
    km.ilp = 2.4;
    // floats: 4-8 byte dominated, almost no 1-2 byte accesses
    km.granularityWeights = {1, 3, 42, 38, 11, 4, 1};
    km.fracSpmLocal = 0.86;
    km.fracSpmRemote = 0.02;
    km.fracHeap = 0.06;
    km.heapWorkingSet = 24 * 1024;
    km.heapZipf = 0.9;
    // Scattered per-point float accesses: no same-line bursts, so the
    // MACT mostly adds collection latency for K-means (Fig. 20).
    km.streamBurst = 1.0;
    km.opsPerTask = 30000;
    km.instrFootprint = 4 * 1024;
    km.taskInputBytes = 14 * 1024;
    km.streamWorkingSet = 16 * 1024 * 1024;
    v.push_back(km);

    BenchProfile kmp;
    kmp.name = "kmp";
    kmp.fracMem = 0.46;
    kmp.fracLoadOfMem = 0.82;
    kmp.fracBranch = 0.20;
    kmp.branchMissRate = 0.09;
    kmp.ilp = 1.8;
    // byte-at-a-time string matching
    kmp.granularityWeights = {52, 30, 11, 4, 2, 1, 0};
    kmp.fracSpmLocal = 0.55;
    kmp.fracSpmRemote = 0.03;
    kmp.fracHeap = 0.04;
    kmp.heapWorkingSet = 16 * 1024;
    kmp.heapZipf = 1.0;
    kmp.opsPerTask = 26000;
    kmp.instrFootprint = 2 * 1024;
    kmp.taskInputBytes = 10 * 1024;
    kmp.streamWorkingSet = 16 * 1024 * 1024;
    v.push_back(kmp);

    BenchProfile rnc;
    rnc.name = "rnc";
    rnc.fracMem = 0.40;
    rnc.fracLoadOfMem = 0.64;
    rnc.fracBranch = 0.22;
    rnc.branchMissRate = 0.10;
    rnc.ilp = 1.6;
    rnc.granularityWeights = {42, 34, 14, 6, 3, 1, 0};
    rnc.fracSpmLocal = 0.54;
    rnc.fracSpmRemote = 0.08;
    rnc.fracHeap = 0.06;
    rnc.heapWorkingSet = 16 * 1024;
    rnc.heapZipf = 1.0;
    rnc.fracPriority = 0.30;
    rnc.opsPerTask = 18000;
    rnc.instrFootprint = 8 * 1024;
    rnc.taskInputBytes = 4 * 1024;
    rnc.streamWorkingSet = 8 * 1024 * 1024;
    v.push_back(rnc);

    for (auto &p : v)
        p.validate();
    return v;
}

/**
 * SPLASH2-like conventional applications: larger access granularity
 * (cache-line friendly doubles / structs), bigger working sets, no
 * scratch-pad usage. Only the features used by Fig. 8 and Fig. 1
 * matter here.
 */
BenchProfile
makeConventional(const std::string &name, std::vector<double> gran,
                 double frac_mem, std::uint64_t ws_kb, double zipf)
{
    BenchProfile p;
    p.name = name;
    p.fracMem = frac_mem;
    p.fracBranch = 0.10;
    p.fracFp = 0.20;
    p.branchMissRate = 0.03;
    p.ilp = 2.4;
    p.granularityWeights = std::move(gran);
    p.fracSpmLocal = 0.0;
    p.fracSpmRemote = 0.0;
    p.fracHeap = 1.0; // everything cacheable
    p.heapWorkingSet = ws_kb * 1024;
    p.heapZipf = zipf;
    p.opsPerTask = 30000;
    p.instrFootprint = 24 * 1024;
    p.validate();
    return p;
}

std::vector<BenchProfile>
makeConventionalProfiles()
{
    std::vector<BenchProfile> v;
    v.push_back(makeConventional("barnes",
        {1, 2, 8, 24, 26, 22, 17}, 0.32, 2048, 0.6));
    v.push_back(makeConventional("cholesky",
        {0, 1, 6, 30, 28, 20, 15}, 0.35, 4096, 0.5));
    v.push_back(makeConventional("fft",
        {0, 1, 4, 34, 28, 18, 15}, 0.33, 8192, 0.3));
    v.push_back(makeConventional("fmm",
        {1, 2, 8, 28, 26, 20, 15}, 0.31, 2048, 0.6));
    v.push_back(makeConventional("lu",
        {0, 1, 5, 32, 28, 20, 14}, 0.36, 4096, 0.4));
    v.push_back(makeConventional("ocean",
        {0, 1, 4, 30, 30, 20, 15}, 0.38, 16384, 0.3));
    v.push_back(makeConventional("radiosity",
        {1, 3, 10, 26, 24, 21, 15}, 0.30, 2048, 0.7));
    v.push_back(makeConventional("radix",
        {1, 2, 12, 30, 25, 18, 12}, 0.37, 8192, 0.3));
    v.push_back(makeConventional("raytrace",
        {1, 3, 10, 26, 26, 19, 15}, 0.33, 4096, 0.7));
    v.push_back(makeConventional("volrend",
        {2, 4, 12, 26, 24, 18, 14}, 0.31, 2048, 0.7));
    v.push_back(makeConventional("water",
        {0, 1, 6, 30, 28, 21, 14}, 0.30, 1024, 0.6));
    return v;
}

} // namespace

const std::vector<BenchProfile> &
htcProfiles()
{
    static const std::vector<BenchProfile> profiles = makeHtcProfiles();
    return profiles;
}

const BenchProfile &
htcProfile(const std::string &name)
{
    for (const auto &p : htcProfiles()) {
        if (p.name == name)
            return p;
    }
    panic("unknown HTC profile '%s'", name.c_str());
}

const std::vector<BenchProfile> &
conventionalProfiles()
{
    static const std::vector<BenchProfile> profiles =
        makeConventionalProfiles();
    return profiles;
}

double
meanGranularity(const BenchProfile &profile)
{
    DiscreteDist dist(profile.granularityWeights);
    double mean = 0.0;
    for (std::size_t i = 0; i < kNumGranularities; ++i)
        mean += dist.probability(i) * kGranularitySizes[i];
    return mean;
}

} // namespace smarco::workloads
