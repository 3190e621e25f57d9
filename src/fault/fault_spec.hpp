/**
 * @file
 * Fault-campaign specification.
 *
 * A campaign is described by a small JSON file (see README "Fault
 * injection") with two-level sections: core / noc / dram / mact pick
 * the fault surfaces, recovery tunes the scheduler's heartbeat
 * recovery, campaign sets the horizon and sweep scaling. All rates
 * are expected injections per million cycles; a rate of 0 disables
 * that source. The same spec plus the same seed reproduces the exact
 * same fault sequence in both kernel modes.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sched/shed.hpp"
#include "sim/simulator.hpp"

namespace smarco::fault {

struct FaultSpec {
    /** Expected injections per million cycles, per source. */
    double coreHangRate = 0.0;
    double coreKillRate = 0.0;
    double nocDegradeRate = 0.0;
    double nocDupRate = 0.0;
    double dramStallRate = 0.0;
    double mactLossRate = 0.0;

    /** Continuous per-crossing packet-drop probability on rings. */
    double nocDropProb = 0.0;
    Cycle nocNackDelay = 12;
    std::uint32_t nocMaxRetransmits = 4;
    /** Link degradation: bandwidth multiplier and window length. */
    double nocDegradeFactor = 0.5;
    Cycle nocDegradeDuration = 20'000;

    Cycle dramStallDuration = 10'000;
    Cycle mactRecoveryLatency = 400;

    /** Injections stop after this many cycles. */
    Cycle horizon = 2'000'000;
    /** Watchdog progress-check period (0 disables the watchdog). */
    Cycle watchdogInterval = 250'000;

    /** Scheduler heartbeat recovery, armed with the campaign. */
    sched::RecoveryParams recovery;

    /**
     * Sweep scaling: every rate is multiplied by rateScale. When
     * rateScaleCeiling >= rateScale, arrival candidates are generated
     * at the ceiling rate and thinned down to rateScale, so the
     * accepted fault sets of a sweep are nested subsets — throughput
     * curves degrade monotonically instead of jumping between
     * unrelated fault sequences.
     */
    double rateScale = 1.0;
    double rateScaleCeiling = 0.0; ///< 0: no thinning

    /** True when any source can fire (rates or continuous drops). */
    bool anyFaults() const;

    /**
     * Parse a campaign spec. Malformed JSON is a user error (fatal),
     * and so are text after the top-level object and a number that
     * is not finite or lies outside its field's range: rates >= 0,
     * probabilities in [0, 1), the degrade factor in (0, 1], cycles
     * in [0, 2^53], counts in [0, 2^32). Unknown keys warn and are ignored so specs stay
     * forward compatible. origin names the source in diagnostics.
     */
    static FaultSpec fromJsonText(const std::string &text,
                                  const std::string &origin);
    static FaultSpec fromJsonFile(const std::string &path);
};

} // namespace smarco::fault
