/**
 * @file
 * Conventional-CMP baseline standing in for the Intel Xeon E7-8890V4
 * the paper compares against (Table 2, Figs. 1, 22, 23).
 *
 * 24 out-of-order cores with 2-way SMT, a three-level cache hierarchy
 * (32 KB L1I/L1D, 256 KB L2 per core, 60 MB shared LLC) and 85 GB/s
 * of memory bandwidth. Out-of-order latency tolerance is approximated
 * by miss-level parallelism (loads only stall the thread when the
 * MSHR window fills or a dependence is drawn), and the OS threading
 * model charges thread-creation, task-queue and context-switch costs
 * so software-threading overhead appears at high thread counts
 * exactly where Fig. 23 shows it.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_campaign.hpp"
#include "isa/instr_stream.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/random.hpp"
#include "sim/run_record.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/profile_stream.hpp"
#include "workloads/task.hpp"

namespace smarco::baseline {

/** Configuration of the conventional chip. */
struct BaselineParams {
    std::string name = "xeon-e7-8890v4";
    std::uint32_t numCores = 24;
    std::uint32_t smtPerCore = 2;
    double freqGHz = 2.2;
    std::uint32_t issueWidth = 4;
    /** OoO cores extract more ILP than the profile's in-order value. */
    double ilpBoost = 1.5;
    /** Outstanding L1 misses a hardware thread tolerates (MLP). */
    std::uint32_t mshrPerThread = 6;
    /** Probability a miss is promptly consumed (ROB stalls on it). */
    double dependStall = 0.30;
    Cycle branchPenalty = 16;          ///< deep OoO pipeline flush
    Cycle l2HitLatency = 12;
    Cycle llcHitLatency = 38;
    /** Second-level DTLB entries (4 KB pages). HTC's scattered
     *  record probes over multi-GB datasets miss here constantly;
     *  the SmarCo accelerator uses segment-based unified addressing
     *  and pays no equivalent cost (DESIGN.md). */
    std::uint32_t tlbEntries = 256;
    std::uint32_t pageBytes = 4096;
    Cycle tlbWalkLatency = 22;

    mem::CacheParams l1i{"l1i", 32 * 1024, 8, 64, 2};
    mem::CacheParams l1d{"l1d", 32 * 1024, 8, 64, 4};
    mem::CacheParams l2{"l2", 256 * 1024, 8, 64, 12};
    mem::CacheParams llc{"llc", 60 * 1024 * 1024, 20, 64, 38};

    /** 85 GB/s at 2.2 GHz core clock = 38.6 B/cycle across 4 channels;
     *  180 cycles (~82 ns) to the first byte. Instruction-fetch misses
     *  that leave the LLC pay the same latency. */
    mem::DramParams dram{
        .channels = 4, .bytesPerCycle = 9.66, .accessLatency = 180};

    // --- OS / software threading model -----------------------------------
    Cycle threadCreateCost = 30000;
    Cycle contextSwitchCost = 5000;
    Cycle schedQuantum = 100000;
    /** Cost of popping the shared task queue (lock + dispatch). */
    Cycle taskPopCost = 600;
    /** Per-thread "hot data" region (stack/TLS) in bytes. */
    std::uint64_t hotRegionBytes = 24 * 1024;
};

/** A baseline run's record plus the numbers only this chip has. */
struct BaselineMetrics : RunRecord {
    double starvationRatio = 0.0;
    double branchMissRatio = 0.0;
    double l1MissRatio = 0.0;
    double l2MissRatio = 0.0;
    double llcMissRatio = 0.0;
    double l1AvgLatency = 0.0;
    double l2AvgLatency = 0.0;
    double llcAvgLatency = 0.0;
};

/**
 * The conventional chip. Usage: construct, submit tasks with a
 * software-thread count, run the simulator, read metrics().
 */
class BaselineChip : public Ticking, public fault::FaultTarget
{
  public:
    BaselineChip(Simulator &sim, BaselineParams params);

    /**
     * Create num_threads software worker threads that drain the given
     * task bag. Threads are created serially by a main thread (cost
     * threadCreateCost each), then repeatedly pop tasks until the bag
     * empties.
     */
    void spawnWorkers(std::uint32_t num_threads,
                      std::vector<workloads::TaskSpec> tasks,
                      bool persistent = false);

    /**
     * Overload control for open-loop injection: bound the shared bag
     * at queue_cap tasks and, at pop time, drop queued tasks whose
     * deadline has become unreachable (the software analogue of the
     * SmarCo schedulers' admission + early-drop). Also registers
     * base.e2eLatency, a release-to-completion histogram of
     * completions up to latency_hist_max. Off by default.
     */
    void enableAdmission(std::uint32_t queue_cap,
                         double latency_hist_max = 4'000'000.0);

    /**
     * Submit one request to the shared bag, also while workers run.
     * The task's observer (TaskSpec::observer, null for none) hears
     * its terminal outcome once: QueueFull when admission is on and
     * the bag is full, Expired when it is early-dropped at pop time,
     * or completion. A killed worker's task returns to the bag with
     * its observer. Same contract as chip::SmarcoChip::submitRequest.
     */
    void submitRequest(const workloads::TaskSpec &task);

    std::uint64_t tasksShed() const
    { return static_cast<std::uint64_t>(shedQueueFull_.value()); }
    std::uint64_t tasksExpired() const
    { return static_cast<std::uint64_t>(tasksExpired_.value()); }

    /** The chip's own tick: the active-cycle and offered-slot
     *  counts, the OS watchdog and the time slices. Its cores tick
     *  after it, as components of their own. */
    void tick(Cycle now) override;
    bool busy() const override;
    /**
     * The next time slice (only when some slot holds more than one
     * thread) or the next watchdog scan. A chip with no live software
     * thread sleeps until spawn.
     */
    Cycle nextActiveCycle(Cycle now) const override;
    /** Replay the skipped ticks' active-cycle and offered-slot counts
     *  and the rotation clock. */
    void skipTicks(Cycle from, Cycle n) override;

    BaselineMetrics metrics() const;
    Simulator &sim() { return sim_; }
    const BaselineParams &params() const { return params_; }
    /** metrics().tasksCompleted alone; perfbench's xeon-htc reads it. */
    std::uint64_t tasksCompleted() const
    { return static_cast<std::uint64_t>(tasksDone_.value()); }

    // --- FaultTarget -----------------------------------------------------
    /** Hang a worker (it freezes in its SMT slot until the OS
     *  watchdog restarts it), kill one (its task returns to the bag
     *  and it respawns at threadCreateCost) or stall a DRAM channel.
     *  The chip has no ring NoC or MACT: their kinds find no victim. */
    bool inject(fault::FaultKind kind, Rng &rng, Cycle now,
                const fault::FaultSpec &spec) override;
    /** OS watchdog: scan every heartbeatInterval, restart workers
     *  hung for at least hangTimeout cycles. */
    void armContinuous(const fault::FaultSpec &spec, Rng &) override;
    std::uint64_t progress() const override;

  private:
    /** One software thread. */
    struct SwThread {
        enum class State : std::uint8_t {
            Starting, Runnable, Stalled, Finished
        };
        State state = State::Starting;
        std::unique_ptr<workloads::ProfileStream> stream;
        workloads::TaskSpec task;
        bool hasTask = false;
        Cycle readyAt = 0;
        std::uint32_t outstanding = 0; ///< in-flight L1 miss count
        Addr pcBase = 0;
        std::uint64_t fetchOff = 0;
        isa::MicroOp pending{};
        bool hasPending = false;
        /** Fault model: frozen in place, holding its SMT slot. */
        bool hung = false;
        Cycle hungSince = 0;
        Rng rng{0, 0};
        std::uint32_t id = 0;
    };

    /**
     * One physical core: its private caches, DTLB and SMT slots. A
     * core is a component of its own, registered after the chip in
     * core order, so the kernel schedules the SMT slots: a tick visits
     * every occupied slot in order under the core's issue budget,
     * and a visit to a front thread that cannot act is a no-op. A
     * change that reaches a front thread from outside the core's tick
     * (a DRAM fill of a stalled thread, a time slice, a restart, a
     * hang, a spawn) calls wake() on the core first.
     */
    struct Core : Ticking {
        BaselineChip *chip = nullptr;
        std::uint32_t index = 0;
        std::unique_ptr<mem::Cache> l1i;
        std::unique_ptr<mem::Cache> l1d;
        std::unique_ptr<mem::Cache> l2;
        std::unique_ptr<mem::Cache> dtlb;
        /** Software threads affined to each SMT slot, front = live. */
        std::vector<std::deque<std::uint32_t>> slots;

        /** Visit the slots; a visit that finishes the pool wakes the
         *  chip, which counts this cycle, and retires the pool. */
        void tick(Cycle now) override;
        /** The chip's busy() speaks for its cores. */
        bool busy() const override { return false; }
        /** The earliest wake of a front thread (firstWake). */
        Cycle nextActiveCycle(Cycle now) const override;
        /** Skipped ticks are no-ops; panics if one could have acted. */
        void skipTicks(Cycle from, Cycle n) override;
        /** The least readyAt of the front threads that are Starting
         *  or Runnable and not hung; kNoCycle when there is none. */
        Cycle firstWake() const;
    };

    workloads::AddressLayout layoutFor(const SwThread &t) const;
    /** Run one slot's front thread for this cycle. */
    void runThread(Core &core, SwThread &t, Cycle now,
                   std::uint32_t &budget);
    std::uint32_t numSlots() const
    { return params_.numCores * params_.smtPerCore; }
    /** Flat SMT slot (core * smtPerCore + way) a thread is affined to. */
    std::uint32_t slotOf(const SwThread &t) const
    { return t.id % numSlots(); }
    Core &coreOf(const SwThread &t)
    { return cores_[slotOf(t) / params_.smtPerCore]; }
    /** Some slot holds more than one thread, so rotations switch
     *  contexts (otherwise they only advance nextRotate_). Live
     *  threads are exactly those in slots: retirement empties them. */
    bool oversubscribed() const { return liveThreads_ > numSlots(); }
    /** Non-persistent pool with nothing left to run: retire it. */
    bool retirable() const
    {
        return !persistent_ && bag_.empty() && pendingMisses_ == 0 &&
               activeTasks_ == 0 && startingCount_ == 0 &&
               liveThreads_ > 0;
    }
    /** Finish every live thread and empty the slots, so the simulator
     *  can go idle and a later spawn's threads are each at the front
     *  of theirs. */
    void retirePool();
    void nextTask(SwThread &t, Cycle now);
    /** Record and resolve a completion, then pop the next task. */
    void taskDone(SwThread &t, Cycle now);
    /** Return the worker's task to the bag and respawn it. */
    void restartWorker(SwThread &t, Cycle now);
    /** Hang or kill a pseudo-randomly chosen worker holding a task;
     *  false when there is none. */
    bool injectWorkerFault(bool hang, Rng &rng, Cycle now);
    bool fetchOk(Core &core, SwThread &t, Cycle now);
    /** @return true when the thread may keep issuing this cycle. */
    bool executeOp(Core &core, SwThread &t, const isa::MicroOp &op,
                   Cycle now);
    void memAccess(Core &core, SwThread &t, Addr addr, bool is_store,
                   Cycle now);

    Simulator &sim_;
    BaselineParams params_;
    std::vector<Core> cores_;
    std::vector<SwThread> threads_;
    std::unique_ptr<mem::Cache> llc_;
    std::unique_ptr<mem::DramController> dram_;
    std::deque<workloads::TaskSpec> bag_;
    std::uint64_t liveThreads_ = 0;
    std::uint64_t pendingMisses_ = 0;
    std::uint64_t activeTasks_ = 0;   ///< threads mid-task
    std::uint64_t startingCount_ = 0; ///< threads not yet created
    bool persistent_ = false;         ///< CDN-style worker pool
    bool admissionOn_ = false;
    std::uint32_t bagCap_ = 0;
    bool recoveryOn_ = false;
    Cycle recoveryInterval_ = 10'000;
    Cycle recoveryTimeout_ = 60'000;
    Cycle nextScan_ = 0;
    Cycle lastTaskFinish_ = 0;
    /** OS time-slice clock, shared by every core: all of them start
     *  at 0 and every live chip tick advances it. */
    Cycle nextRotate_ = 0;

    Scalar committed_;
    Scalar cycles_;
    Scalar slotsOffered_;
    Scalar slotsUsed_;
    Scalar starveCycles_;
    Scalar branches_;
    Scalar branchMisses_;
    Scalar tasksDone_;
    Scalar switches_;
    Scalar deadlineMisses_;
    Scalar workerKills_;
    Scalar workerHangs_;
    Scalar recoveries_;
    Average l1Latency_;
    Average l2Latency_;
    Average llcLatency_;
    Scalar shedQueueFull_;
    Scalar tasksExpired_;
    /** Created on enableAdmission(), which sets its range. */
    std::unique_ptr<Histogram> e2eLatency_;
};

} // namespace smarco::baseline
