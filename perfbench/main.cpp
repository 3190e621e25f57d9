/**
 * @file
 * One repetition of one benchmark workload, in this process.
 *
 *   smarco_perfbench --workload NAME --seed N [--trace-out FILE]
 *
 * Prints one JSON object on stdout: host timings, simulated results,
 * the stats digest, the output-check verdict and every per-layer
 * metric. With --trace-out, also replays each layer in isolation
 * after the simulation and writes the benchmark's spans to FILE as
 * Chrome-trace JSON. Exits 1 when an output check fails, 2 on usage
 * errors. run.py drives this binary; see README.md.
 */
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/json_writer.hpp"
#include "sim/logging.hpp"
#include "workloads.hpp"

using namespace smarco;

namespace {

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usage()
{
    std::fprintf(stderr, "usage: smarco_perfbench --workload NAME "
                         "--seed N [--trace-out FILE]\nworkloads:");
    for (const auto &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto entry = std::chrono::steady_clock::now();
    std::string workload;
    std::string trace_out;
    std::uint64_t seed = 1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            workload = val;
        } else if (flag == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(val, &end, 10);
            have_seed = end && *end == '\0' && *val != '\0';
        } else if (flag == "--trace-out") {
            trace_out = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_seed)
        return usage();
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known = known || w == workload;
    if (!known)
        return usage();

    const bool traced = !trace_out.empty();
    perfbench::SpanLog spans(traced);
    const perfbench::RunResult r =
        perfbench::runWorkload(workload, seed, spans, traced);
    // The replays that follow a traced run are small; the peak is the
    // simulation's.
    const double rss = peakRssMb();
    if (traced && !spans.writeChromeTrace(
                      trace_out, workload + " seed " +
                                     std::to_string(seed)))
        fatal("cannot write %s", trace_out.c_str());
    // The whole repetition, replays and trace writing included.
    const double total_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - entry)
                               .count();

    const bool correct = r.checkFailures.empty();
    std::string checks;
    for (const auto &f : r.checkFailures)
        checks += (checks.empty() ? "" : ",") + json::str(f);
    std::string slices;
    for (double s : r.sliceS)
        slices += strprintf("%s%.9g", slices.empty() ? "" : ",", s);
    std::string layers;
    for (const auto &[name, value] : r.layers)
        layers += (layers.empty() ? "" : ",") + json::str(name) + ":" +
                  json::num(value);
    std::printf(
        "{\"workload\":%s,\"seed\":%" PRIu64 ",\"digest\":\"%016" PRIx64
        "\",\"correct\":%s,\"check_failures\":[%s],"
        "\"offered\":%" PRIu64 ",\"failed\":%" PRIu64 ","
        "\"host\":{\"setup_s\":%.9g,\"gen_s\":%.9g,\"build_s\":%.9g,"
        "\"submit_s\":%.9g,\"run_s\":%.9g,\"total_s\":%.9g,"
        "\"peak_rss_mb\":%.6g,\"slices_s\":[%s]},"
        "\"sim\":{\"cycles\":%" PRIu64 ",\"ops\":%" PRIu64 ","
        "\"goodput\":%" PRIu64 ",\"e2e_p50_cycles\":%.6f,"
        "\"e2e_p99_cycles\":%.6f,\"e2e_samples\":%" PRIu64 "},"
        "\"layers\":{%s}}\n",
        json::str(workload).c_str(), seed, r.digest,
        correct ? "true" : "false", checks.c_str(), r.offered, r.failed,
        r.setupS, r.genS, r.buildS, r.submitS, r.runS, total_s, rss,
        slices.c_str(),
        static_cast<std::uint64_t>(r.cycles), r.opsCommitted, r.goodput,
        r.e2eP50, r.e2eP99, r.e2eSamples, layers.c_str());
    return correct ? 0 : 1;
}
