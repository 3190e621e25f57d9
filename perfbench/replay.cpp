#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "isa/micro_op.hpp"
#include "mem/mem_types.hpp"
#include "noc/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workloads/profile_stream.hpp"

namespace perfbench {

using namespace smarco;

namespace {

/** Repetitions of each replay; the median is reported. */
constexpr int kReplayReps = 3;
/** Ticks of offered traffic in the ring and memory replays. */
constexpr Cycle kReplayCycles = 20'000;
/** Tasks of the workload whose micro-op streams are replayed. */
constexpr std::size_t kReplayTasks = 256;
constexpr std::uint64_t kReplayEvents = 400'000;

double
hostNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Divisor for a per-call cost (never zero). */
double
perCall(std::uint64_t calls)
{
    return static_cast<double>(std::max<std::uint64_t>(calls, 1));
}

/** Median over kReplayReps of fn(), which returns ns per call. */
template <typename Fn>
double
medianOf(Fn &&fn)
{
    std::vector<double> v;
    for (int i = 0; i < kReplayReps; ++i)
        v.push_back(fn());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Offers one packet per stop per cycle to a ring, then drains. */
class RingLoad : public Ticking
{
  public:
    RingLoad(Simulator &sim, noc::Ring &ring)
        : ring_(ring), rng_(namedRng(1, "perfbench.ring"))
    {
        sim.addTicking(this);
    }

    void
    tick(Cycle now) override
    {
        done_ = now + 1 >= kReplayCycles;
        if (now >= kReplayCycles)
            return;
        const std::uint32_t n = ring_.params().numStops;
        for (std::uint32_t s = 0; s < n; ++s) {
            noc::Packet pkt;
            pkt.id = nextId_++;
            pkt.kind = noc::PacketKind::MemReadReq;
            pkt.payloadBytes = (pkt.id & 3) == 0 ? 64 : 12;
            pkt.created = now;
            const auto dst = static_cast<std::uint32_t>(
                (s + 1 + rng_.nextBelow(n - 1)) % n);
            ring_.inject(s, dst, std::move(pkt));
        }
    }

    bool busy() const override { return !done_; }

  private:
    noc::Ring &ring_;
    bool done_ = false;
    Rng rng_;
    std::uint64_t nextId_ = 1;
};

/** Issues one memory access per cycle through cache, MACT, DRAM. */
class MemLoad : public Ticking
{
  public:
    MemLoad(Simulator &sim, mem::Cache &cache, mem::Mact *mact,
            mem::DramController &dram)
        : cache_(cache), mact_(mact), dram_(dram),
          rng_(namedRng(1, "perfbench.mem")), zipf_(1 << 14, 0.8)
    {
        sim.addTicking(this);
    }

    void
    tick(Cycle now) override
    {
        done_ = now + 1 >= kReplayCycles;
        if (now >= kReplayCycles)
            return;
        const bool write = (rng_.next() & 3) == 0;
        const Addr line = zipf_.sample(rng_);
        const Addr addr = line * 64 + (rng_.next() & 60);
        cache_.access(addr, write);
        mem::MemRequest req;
        req.id = ++accesses_;
        req.write = write;
        req.addr = addr;
        req.bytes = 4;
        req.issued = now;
        if (!mact_ || !mact_->collect(req, now))
            dram_.serve(addr & ~Addr{63}, 64, now, {},
                        write ? mem::DramClass::Write
                              : mem::DramClass::DemandRead);
    }

    bool busy() const override { return !done_; }

    std::uint64_t accesses() const { return accesses_; }

  private:
    mem::Cache &cache_;
    mem::Mact *mact_;
    mem::DramController &dram_;
    Rng rng_;
    ZipfDist zipf_;
    std::uint64_t accesses_ = 0;
    bool done_ = false;
};

} // namespace

double
replayProfileStream(const std::vector<workloads::TaskSpec> &tasks)
{
    const std::size_t n = std::min(tasks.size(), kReplayTasks);
    return medianOf([&]() {
        std::uint64_t ops = 0;
        const double t0 = hostNs();
        for (std::size_t i = 0; i < n; ++i) {
            const auto &t = tasks[i];
            workloads::ProfileStream stream(*t.profile, {}, t.numOps,
                                            t.seed);
            isa::MicroOp op{};
            while (stream.next(op))
                ++ops;
        }
        return (hostNs() - t0) / perCall(ops);
    });
}

double
replayRing(const noc::RingParams &params)
{
    return medianOf([&]() {
        Simulator sim;
        noc::Ring ring(sim, params, "replay.ring");
        std::uint64_t delivered = 0;
        for (std::uint32_t s = 0; s < params.numStops; ++s)
            ring.setHandler(s, [&delivered](noc::Packet &&) {
                ++delivered;
            });
        RingLoad load(sim, ring);
        const double t0 = hostNs();
        sim.run(100 * kReplayCycles);
        return (hostNs() - t0) / perCall(delivered);
    });
}

double
replayMemory(const mem::CacheParams &cache, const mem::MactParams *mact,
             const mem::DramParams &dram)
{
    return medianOf([&]() {
        Simulator sim;
        mem::Cache l1(sim.stats(), cache, "replay.l1");
        std::unique_ptr<mem::Mact> table;
        mem::DramController ctrl(sim, dram, "replay.dram");
        if (mact) {
            table = std::make_unique<mem::Mact>(sim, *mact,
                                                "replay.mact");
            table->setSink([&ctrl, &sim](mem::MactBatch &&b) {
                ctrl.serve(b.lineBase, b.coveredBytes(), sim.now(), {},
                           b.write ? mem::DramClass::Write
                                   : mem::DramClass::DemandRead);
            });
        }
        MemLoad load(sim, l1, table.get(), ctrl);
        const double t0 = hostNs();
        sim.run(100 * kReplayCycles);
        return (hostNs() - t0) / perCall(load.accesses());
    });
}

double
replayEventQueue()
{
    return medianOf([]() {
        EventQueue q;
        std::uint64_t fired = 0;
        const double t0 = hostNs();
        constexpr std::uint64_t kBatch = 1000;
        for (std::uint64_t base = 0; base < kReplayEvents;
             base += kBatch) {
            for (std::uint64_t i = 0; i < kBatch; ++i)
                q.schedule(base + (i * 7) % kBatch,
                           [&fired]() { ++fired; });
            q.runUntil(base + kBatch - 1);
        }
        return (hostNs() - t0) / perCall(fired);
    });
}

} // namespace perfbench
