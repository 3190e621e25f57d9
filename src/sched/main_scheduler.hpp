/**
 * @file
 * Main-ring scheduler (Section 3.7).
 *
 * The main scheduler receives task sets from the host CPU over PCIe
 * and spreads them across sub-ring schedulers to keep the whole chip
 * load-balanced. Task hand-off to a sub-ring goes through the
 * transport given at construction: on the chip, a control packet on
 * the main ring, so dispatch traffic shows up in the NoC.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/shed.hpp"
#include "sched/sub_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/task.hpp"

namespace smarco::sched {

/** Configuration of the main scheduler. */
struct MainSchedulerParams {
    /** Decision latency per task routed (cycles). */
    Cycle decisionLatency = 2;
};

/**
 * Main scheduler: host-facing task distribution, driven entirely by
 * the event queue. A task held for a future release holds simulator
 * work (Simulator::holdWork) until its release event routes it, so
 * anyBusy() stays true across release gaps.
 */
class MainScheduler
{
  public:
    /** Deliver a routed task to its sub-ring's scheduler. */
    using Transport = std::function<void(std::uint32_t sub_ring,
                                         const workloads::TaskSpec &)>;

    MainScheduler(Simulator &sim, MainSchedulerParams params,
                  Transport transport, const std::string &stat_prefix);

    /** Register sub-ring schedulers, in sub-ring order. */
    void addSubScheduler(SubScheduler *sub);

    /**
     * Submit one task. A task with a future release is held until
     * its release cycle; routing then picks the least-loaded sub-ring
     * at that moment.
     */
    void submit(const workloads::TaskSpec &task);

    /**
     * Turn on admission control and load shedding at route time.
     * Off by default: an uncontrolled run routes everything, and its
     * admission and shed counters stay zero.
     */
    void enableAdmission(const AdmissionParams &params);

    bool degraded() const { return degraded_; }

    std::uint64_t tasksShed() const;

  private:
    void route(const workloads::TaskSpec &task);
    std::uint32_t leastLoaded() const;
    /** Admission test; fills reason when the task must be shed. */
    bool admit(const workloads::TaskSpec &task, std::uint32_t target,
               workloads::ShedReason &reason);
    /** Count, trace and resolve a task refused at route time. */
    void shed(const workloads::TaskSpec &task,
              workloads::ShedReason reason);
    void updateDegraded();

    Simulator &sim_;
    MainSchedulerParams params_;
    std::vector<SubScheduler *> subs_;
    Transport transport_;
    Cycle nextFree_ = 0;

    bool admissionOn_ = false;
    AdmissionParams admission_;
    bool degraded_ = false;

    Scalar routed_;
    Scalar admitted_;
    Scalar shedQueueFull_;
    Scalar shedInfeasible_;
    Scalar shedDegraded_;
    Scalar degradedEntries_;
};

} // namespace smarco::sched
