/**
 * @file
 * Deterministic fault-injection campaign.
 *
 * A FaultCampaign turns a FaultSpec into a pre-generated, seeded
 * sequence of fault arrivals and replays it through the event queue.
 * Every random draw comes from named "fault.*" streams, so arming a
 * campaign never perturbs workload or scheduler randomness. An inert
 * campaign (all rates zero) schedules nothing: its run dumps the same
 * stats as a campaign-free one plus the campaign's own "fault.*"
 * entries, all zero. Arrivals are generated up front — not as the
 * run unfolds — so the same spec and seed give the same injection
 * cycles in the cycle-accurate and fast-forward kernels alike.
 *
 * A chip answers the campaign as a FaultTarget; the campaign stays
 * ignorant of chip internals and depends only on the sim layer.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "fault/fault_spec.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace smarco::fault {

/** The six scheduled fault sources. */
enum class FaultKind : std::uint8_t {
    CoreHang,
    CoreKill,
    NocDegrade,
    NocDup,
    DramStall,
    MactLoss,
};
inline constexpr std::size_t kNumFaultKinds = 6;

const char *faultKindName(FaultKind kind);

/** One executed injection attempt. */
struct FaultRecord {
    Cycle cycle = 0;
    FaultKind kind = FaultKind::CoreHang;
    /** False when no eligible victim existed at that cycle. */
    bool hit = false;
};

/**
 * The campaign's view of one chip. Every chip answers every kind:
 * one without the surface a kind names answers "no victim".
 */
class FaultTarget
{
  public:
    /** Attempt one injection, picking the victim from rng (the
     *  kind's own stream); false when no victim is eligible. */
    virtual bool inject(FaultKind kind, Rng &rng, Cycle now,
                        const FaultSpec &spec) = 0;
    /** Install the always-on knobs: ring drop probability (drawing
     *  from the campaign-owned drop_rng) and recovery. */
    virtual void armContinuous(const FaultSpec &spec,
                               Rng &drop_rng) = 0;
    /** A monotonically growing work counter for the watchdog. */
    virtual std::uint64_t progress() const = 0;

  protected:
    ~FaultTarget() = default;
};

/**
 * Per-fault record log, exported under "fault.log" in the stats JSON
 * so --stats-json runs carry their injection history. Capped: a long
 * campaign keeps the first kMaxRecords and sets "truncated".
 */
class FaultLog : public Stat
{
  public:
    using Stat::Stat;

    static constexpr std::size_t kMaxRecords = 256;

    void record(const FaultRecord &r);

    const std::vector<FaultRecord> &records() const { return records_; }

    double value() const override
    { return static_cast<double>(total_); }
    void printJson(std::ostream &os) const override;

  private:
    std::vector<FaultRecord> records_;
    std::uint64_t total_ = 0;
};

/**
 * The campaign. Construct with the spec and the fault seed, then
 * arm() with a chip after it is built and before the run starts. The
 * campaign and the chip must outlive the run: pending events hold a
 * pointer to the campaign, and the campaign one to the chip.
 */
class FaultCampaign
{
  public:
    FaultCampaign(Simulator &sim, FaultSpec spec, std::uint64_t seed);

    /** Generate the arrival sequence and start the event chains. */
    void arm(FaultTarget &target);

    std::uint64_t injected() const
    { return static_cast<std::uint64_t>(injected_.value()); }
    const FaultLog &log() const { return log_; }

  private:
    struct Arrival {
        Cycle cycle = 0;
        std::uint8_t src = 0; ///< index into FaultKind
    };

    void generate();
    void scheduleNext(std::size_t idx);
    void fire(std::size_t idx);
    void scheduleWatchdog(Cycle when);
    [[noreturn]] void watchdogAbort(Cycle now);

    Simulator &sim_;
    FaultSpec spec_;
    std::uint64_t seed_;
    FaultTarget *target_ = nullptr;

    std::vector<Arrival> arrivals_;
    std::array<Rng, kNumFaultKinds> pickRngs_;
    /** Per-crossing drop draws; handed to the rings via a pointer. */
    Rng dropRng_;
    std::uint64_t lastProgress_ = 0;
    bool progressSeen_ = false;

    Scalar injected_;
    Scalar noVictim_;
    std::array<Scalar, kNumFaultKinds> byKind_;
    FaultLog log_;
};

/**
 * When the process was launched with --faults=campaign.json, build a
 * campaign from the CLI options and arm it with the chip; return null
 * (and do nothing) otherwise. The caller keeps the campaign alive for
 * the duration of the run. Every bench and example routes through
 * this, so --faults / --fault-seed behave uniformly everywhere.
 */
std::unique_ptr<FaultCampaign> armFaultsFromCli(Simulator &sim,
                                                FaultTarget &target);

} // namespace smarco::fault
