/**
 * @file
 * Component micro-benchmarks (google-benchmark): raw speed of the
 * simulation kernel's hot paths — event queue, RNG, cache tag model,
 * MACT collection, ring traversal, stream start-up, and a small
 * end-to-end chip step.
 * These guard the simulator's own performance, not the paper's
 * results.
 */
#include <benchmark/benchmark.h>

#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "mem/cache.hpp"
#include "mem/mact.hpp"
#include "noc/ring.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "workloads/cdn.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"

using namespace smarco;

static void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue q;
    Cycle now = 0;
    int sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 1 + (i % 7), [&sink] { ++sink; });
        now += 8;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

static void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += rng.next();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNext);

static void
BM_ZipfSample(benchmark::State &state)
{
    ZipfDist zipf(4096, 0.9);
    Rng rng(43);
    std::size_t acc = 0;
    for (auto _ : state)
        acc += zipf.sample(rng);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZipfSample);

static void
BM_CacheAccess(benchmark::State &state)
{
    StatRegistry reg;
    mem::CacheParams p;
    p.sizeBytes = 16 * 1024;
    mem::Cache cache(reg, p, "c");
    Rng rng(44);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.nextBelow(64 * 1024), false).hit);
}
BENCHMARK(BM_CacheAccess);

static void
BM_MactCollect(benchmark::State &state)
{
    Simulator sim;
    mem::MactParams p;
    mem::Mact mact(sim, p, "mact");
    mact.setSink([](mem::MactBatch &&) {});
    Rng rng(45);
    std::uint64_t id = 0;
    Cycle now = 0;
    for (auto _ : state) {
        mem::MemRequest req;
        req.id = ++id;
        req.addr = 0x9000'0000 + rng.nextBelow(4096);
        req.bytes = 4;
        benchmark::DoNotOptimize(mact.collect(req, now));
        mact.tick(++now);
    }
}
BENCHMARK(BM_MactCollect);

static void
BM_ProfileStreamNext(benchmark::State &state)
{
    const auto &prof = workloads::htcProfile("wordcount");
    workloads::AddressLayout layout;
    layout.spmLocalBase = 0x1000'0000;
    layout.heapBase = 0x8000'0000;
    layout.streamBase = 0x9000'0000;
    workloads::ProfileStream stream(prof, layout, ~0ull >> 2, 7);
    isa::MicroOp op;
    for (auto _ : state) {
        stream.next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_ProfileStreamNext);

/**
 * Cost of starting a task's micro-op stream, heap Zipf table
 * included: arg 0 is a CDN chunk at 300 clients (the Fig. 2 load,
 * a 300 x 24 KB heap of 64-byte chunks), arg 1 is wordcount on the
 * conventional baseline's 32x heap.
 */
static void
BM_ProfileStreamBuild(benchmark::State &state)
{
    const bool cdn = state.range(0) == 0;
    const workloads::BenchProfile prof =
        cdn ? workloads::CdnWorkload().chunkProfile(300)
            : workloads::htcProfile("wordcount");
    workloads::AddressLayout layout;
    layout.spmLocalBase = 0x1000'0000;
    layout.heapBase = 0x8000'0000;
    layout.heapSize = (cdn ? 1 : 32) * prof.heapWorkingSet;
    layout.streamBase = 0x9000'0000;
    state.SetLabel(strprintf("%s, %llu heap chunks", prof.name.c_str(),
                             static_cast<unsigned long long>(
                                 layout.heapSize / 64)));
    std::uint64_t seed = 7;
    isa::MicroOp op;
    for (auto _ : state) {
        workloads::ProfileStream stream(prof, layout, prof.opsPerTask,
                                        ++seed);
        stream.next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_ProfileStreamBuild)->Arg(0)->Arg(1);

static void
BM_RingSaturatedCycle(benchmark::State &state)
{
    Simulator sim;
    noc::RingParams rp;
    rp.numStops = 17;
    noc::Ring ring(sim, rp, "ring");
    for (std::uint32_t s = 0; s < rp.numStops; ++s)
        ring.setHandler(s, [](noc::Packet &&) {});
    Rng rng(46);
    Cycle now = 0;
    for (auto _ : state) {
        for (std::uint32_t s = 0; s < rp.numStops; ++s) {
            noc::Packet pkt;
            pkt.payloadBytes = 8;
            ring.inject(s, (s + 5) % rp.numStops, std::move(pkt));
        }
        ring.tick(now++);
    }
}
BENCHMARK(BM_RingSaturatedCycle);

static void
BM_ChipCyclePerCore(benchmark::State &state)
{
    Simulator sim;
    auto cfg = chip::ChipConfig::scaled(2, 8);
    chip::SmarcoChip chip(sim, cfg);
    workloads::TaskSetParams tp;
    tp.count = 64;
    tp.seed = 3;
    auto tasks = workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp);
    for (auto &t : tasks)
        t.numOps = 1u << 30; // effectively endless
    chip.submit(tasks);
    sim.run(5000); // warm up
    for (auto _ : state)
        sim.run(1);
    state.SetItemsProcessed(state.iterations() * chip.numCores());
}
BENCHMARK(BM_ChipCyclePerCore);

BENCHMARK_MAIN();
