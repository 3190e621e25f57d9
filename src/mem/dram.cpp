#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::mem {

DramController::DramController(Simulator &sim, DramParams params,
                               const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      channels_(params.channels),
      requests_(sim.stats(), stat_prefix + ".requests",
                "DRAM requests served"),
      bytes_(sim.stats(), stat_prefix + ".bytes",
             "DRAM data bytes moved"),
      faultStalls_(sim.stats(), stat_prefix + ".faultStalls",
                   "channel stall windows injected"),
      faultStallCycles_(sim.stats(), stat_prefix + ".faultStallCycles",
                        "total injected stall-window cycles"),
      readLatency_(sim.stats(), stat_prefix + ".latency",
                   "mean read service latency (cycles)"),
      queueDelay_(sim.stats(), stat_prefix + ".queueDelay",
                  "mean cycles spent queued at the channel")
{
    if (params_.channels == 0)
        fatal("DRAM: zero channels");
    if (params_.bytesPerCycle <= 0.0)
        fatal("DRAM: non-positive bandwidth");
    if (params_.interleaveBytes == 0)
        fatal("DRAM: zero interleave granularity");
    channelBytes_.reserve(params_.channels);
    for (std::uint32_t ch = 0; ch < params_.channels; ++ch)
        channelBytes_.push_back(std::make_unique<Scalar>(
            sim.stats(), strprintf("%s.ch%u.bytes",
                                   stat_prefix.c_str(), ch),
            "data bytes moved by this channel"));
}

std::uint32_t
DramController::channelOf(Addr addr) const
{
    // XOR-fold higher line bits into the channel selector so strided
    // access patterns (e.g. 256-byte DMA chunks = 4 lines) still
    // spread across channels instead of camping on one.
    const Addr line = addr / params_.interleaveBytes;
    const Addr folded = line ^ (line >> 2) ^ (line >> 5) ^ (line >> 9);
    return static_cast<std::uint32_t>(folded % params_.channels);
}

void
DramController::serve(Addr addr, std::uint32_t data_bytes, Cycle now,
                      DramJob job, DramClass cls)
{
    std::uint32_t slot = kNoJob;
    if (!std::holds_alternative<std::monostate>(job)) {
        if (!sink_)
            panic("DRAM: job served before setSink");
        if (freeJobs_.empty()) {
            freeJobs_.push_back(static_cast<std::uint32_t>(jobs_.size()));
            jobs_.emplace_back();
        }
        slot = freeJobs_.back();
        freeJobs_.pop_back();
        jobs_[slot] = std::move(job);
    }
    const std::uint32_t ch = channelOf(addr);
    Channel &channel = channels_[ch];
    Request req{addr, data_bytes, slot, now};
    switch (cls) {
      case DramClass::DemandRead:
        channel.demandQ.push_back(std::move(req));
        break;
      case DramClass::Bulk:
        channel.bulkQ.push_back(std::move(req));
        break;
      case DramClass::Write:
        channel.writeQ.push_back(std::move(req));
        break;
    }
    if (!channel.serving) {
        channel.serving = true;
        serviceNext(ch);
    }
}

void
DramController::stallChannel(std::uint32_t ch, Cycle duration, Cycle now)
{
    if (ch >= channels_.size())
        panic("DRAM: stallChannel(%u) of %zu", ch, channels_.size());
    Channel &channel = channels_[ch];
    channel.stalledUntil =
        std::max(channel.stalledUntil, now + duration);
    ++faultStalls_;
    faultStallCycles_ += static_cast<double>(duration);
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().complete(
            TraceCat::Fault, strprintf("dram.ch%u.stall", ch), now,
            channel.stalledUntil, ch);
    // An idle channel needs no resume event: the serve() that starts
    // the next service loop lands in the stall check below.
}

void
DramController::serviceNext(std::uint32_t ch)
{
    Channel &channel = channels_[ch];
    if (sim_.now() < channel.stalledUntil) {
        // Fault window: hold the service loop (and the serving flag)
        // and retry when it closes.
        sim_.events().schedule(channel.stalledUntil,
                               [this, ch]() { serviceNext(ch); });
        return;
    }
    const bool reads_pending =
        !channel.demandQ.empty() || !channel.bulkQ.empty();
    const bool drain_writes =
        channel.writeQ.size() >= params_.writeDrainThreshold ||
        !reads_pending;
    std::deque<Request> *q = nullptr;
    if (drain_writes && !channel.writeQ.empty()) {
        q = &channel.writeQ;
    } else if (!channel.demandQ.empty() &&
               (channel.bulkQ.empty() ||
                channel.demandStreak < params_.demandStreakLimit)) {
        q = &channel.demandQ;
        ++channel.demandStreak;
    } else if (!channel.bulkQ.empty()) {
        q = &channel.bulkQ;
        channel.demandStreak = 0;
    }
    if (!q) {
        channel.serving = false;
        return;
    }
    const bool is_read = q != &channel.writeQ;

    const Request req = q->front();
    q->pop_front();

    const Cycle now = sim_.now();
    const Cycle transfer = static_cast<Cycle>(std::ceil(
        static_cast<double>(req.bytes) / params_.bytesPerCycle));
    const Cycle busy =
        params_.requestOverhead + std::max<Cycle>(transfer, 1);
    const Cycle finish = now + params_.accessLatency + transfer;

    ++requests_;
    bytes_ += static_cast<double>(req.bytes);
    *channelBytes_[ch] += static_cast<double>(req.bytes);
    queueDelay_.sample(static_cast<double>(now - req.enqueued));
    if (is_read)
        readLatency_.sample(static_cast<double>(finish - req.enqueued));
    if (sim_.trace().enabled(TraceCat::Mem))
        sim_.trace().counter(TraceCat::Mem,
                             strprintf("dram.ch%u.bytes", ch), now,
                             channelBytes_[ch]->value());

    // The sink may serve again: free the slot before calling it.
    if (req.job != kNoJob)
        sim_.events().schedule(finish, [this, slot = req.job]() {
            DramJob job = std::move(jobs_[slot]);
            freeJobs_.push_back(slot);
            sink_(std::move(job));
        });
    sim_.events().schedule(now + busy,
                           [this, ch]() { serviceNext(ch); });
}

} // namespace smarco::mem
