#include "fault/fault_campaign.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "sim/json_writer.hpp"
#include "sim/logging.hpp"
#include "sim/observability.hpp"

namespace smarco::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CoreHang:   return "coreHang";
      case FaultKind::CoreKill:   return "coreKill";
      case FaultKind::NocDegrade: return "nocDegrade";
      case FaultKind::NocDup:     return "nocDup";
      case FaultKind::DramStall:  return "dramStall";
      case FaultKind::MactLoss:   return "mactLoss";
    }
    return "unknown";
}

void
FaultLog::record(const FaultRecord &r)
{
    ++total_;
    if (records_.size() < kMaxRecords)
        records_.push_back(r);
}

void
FaultLog::printJson(std::ostream &os) const
{
    printJsonHead(os, "faultlog");
    os << ",\"truncated\":"
       << (total_ > records_.size() ? "true" : "false")
       << ",\"records\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const FaultRecord &r = records_[i];
        os << (i ? "," : "") << "{\"cycle\":" << r.cycle
           << ",\"kind\":\"" << faultKindName(r.kind)
           << "\",\"hit\":" << (r.hit ? "true" : "false") << '}';
    }
    os << "]}";
}

namespace {

template <std::size_t... I>
std::array<Scalar, kNumFaultKinds>
makeHitCounters(StatRegistry &stats, std::index_sequence<I...>)
{
    return {Scalar(stats,
                   std::string("fault.hits.") +
                       faultKindName(static_cast<FaultKind>(I)),
                   "injections landed, by kind")...};
}

} // namespace

FaultCampaign::FaultCampaign(Simulator &sim, FaultSpec spec,
                             std::uint64_t seed)
    : sim_(sim),
      spec_(spec),
      seed_(seed),
      injected_(sim.stats(), "fault.injected",
                "scheduled injections that found a victim"),
      noVictim_(sim.stats(), "fault.noVictim",
                "scheduled injections with no eligible victim"),
      byKind_(makeHitCounters(
          sim.stats(), std::make_index_sequence<kNumFaultKinds>{})),
      log_(sim.stats(), "fault.log", "per-fault injection records")
{
}

void
FaultCampaign::arm(FaultTarget &target)
{
    if (target_)
        panic("fault campaign armed twice");
    target_ = &target;
    if (!spec_.anyFaults())
        return; // inert: schedule nothing, counters stay zero

    dropRng_ = namedRng(seed_, "fault.drop");
    target_->armContinuous(spec_, dropRng_);
    generate();
    if (!arrivals_.empty())
        scheduleNext(0);
    if (spec_.watchdogInterval > 0)
        scheduleWatchdog(sim_.now() + spec_.watchdogInterval);
}

void
FaultCampaign::generate()
{
    const std::array<double, kNumFaultKinds> rates = {
        spec_.coreHangRate, spec_.coreKillRate, spec_.nocDegradeRate,
        spec_.nocDupRate,   spec_.dramStallRate, spec_.mactLossRate,
    };
    // Sweep thinning: candidates are generated at the ceiling rate
    // and accepted with rateScale/genScale from a separate stream, so
    // the gap sequence is identical at every sweep point and the
    // accepted sets are nested subsets — fault load scales without
    // swapping in an unrelated fault sequence.
    const double genScale =
        std::max(spec_.rateScale, spec_.rateScaleCeiling);
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
        const std::string name =
            faultKindName(static_cast<FaultKind>(i));
        pickRngs_[i] = namedRng(seed_, "fault.pick." + name);
        const double rate = rates[i];
        if (rate <= 0.0 || spec_.rateScale <= 0.0 || genScale <= 0.0)
            continue;
        const double meanGap = 1e6 / (rate * genScale);
        // A gap past the horizon ends the loop whatever its length,
        // so capping at the horizon keeps every arrival and the cast
        // in range.
        const double capCycles =
            std::min(8.0 * meanGap, static_cast<double>(spec_.horizon));
        const auto gapCap = static_cast<std::uint64_t>(capCycles) + 1;
        const double acceptProb = spec_.rateScale / genScale;
        Rng gapRng = namedRng(seed_, "fault.gap." + name);
        Rng acceptRng = namedRng(seed_, "fault.accept." + name);
        Cycle t = 0;
        for (;;) {
            t += 1 + gapRng.nextGeometric(meanGap, gapCap);
            if (t >= spec_.horizon)
                break;
            // chance() draws nothing at p >= 1, and the full set is a
            // superset of every thinned one, so nesting still holds.
            if (acceptProb >= 1.0 || acceptRng.chance(acceptProb))
                arrivals_.push_back(
                    {t, static_cast<std::uint8_t>(i)});
        }
    }
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.cycle != b.cycle ? a.cycle < b.cycle
                                            : a.src < b.src;
              });
}

void
FaultCampaign::scheduleNext(std::size_t idx)
{
    if (idx >= arrivals_.size())
        return;
    const Cycle when = std::max(arrivals_[idx].cycle, sim_.now());
    sim_.events().schedule(when, [this, idx]() { fire(idx); });
}

void
FaultCampaign::fire(std::size_t idx)
{
    if (!sim_.anyBusy())
        return; // workload drained: stop the injection chain
    const Arrival &a = arrivals_[idx];
    const FaultKind kind = static_cast<FaultKind>(a.src);
    const Cycle now = sim_.now();
    const bool hit = target_->inject(kind, pickRngs_[a.src], now, spec_);
    if (hit) {
        ++injected_;
        ++byKind_[a.src];
    } else {
        ++noVictim_;
    }
    log_.record({now, kind, hit});
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().instant(
            TraceCat::Fault,
            std::string("campaign.") + faultKindName(kind), now, 0,
            strprintf("{\"hit\":%s}", hit ? "true" : "false"));
    scheduleNext(idx + 1);
}

void
FaultCampaign::scheduleWatchdog(Cycle when)
{
    sim_.events().schedule(when, [this, when]() {
        if (!sim_.anyBusy())
            return; // run complete: watchdog retires
        const std::uint64_t cur = target_->progress();
        if (progressSeen_ && cur == lastProgress_)
            watchdogAbort(when);
        progressSeen_ = true;
        lastProgress_ = cur;
        scheduleWatchdog(when + spec_.watchdogInterval);
    });
}

void
FaultCampaign::watchdogAbort(Cycle now)
{
    std::cerr << "fault watchdog: no forward progress in "
              << spec_.watchdogInterval << " cycles at cycle " << now
              << "; stats follow\n";
    sim_.stats().dumpJson(std::cerr);
    std::cerr << '\n';
    fatal("fault watchdog: simulation wedged at cycle %llu",
          static_cast<unsigned long long>(now));
}

std::unique_ptr<FaultCampaign>
armFaultsFromCli(Simulator &sim, FaultTarget &target)
{
    if (!obsOptions().faultsWanted())
        return nullptr;
    auto campaign = std::make_unique<FaultCampaign>(
        sim, FaultSpec::fromJsonFile(obsOptions().faultsPath),
        obsOptions().faultSeed);
    campaign->arm(target);
    return campaign;
}

} // namespace smarco::fault
