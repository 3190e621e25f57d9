/**
 * @file
 * Sub-ring task scheduler (Section 3.7).
 *
 * One scheduler per sub-ring dispatches queued tasks onto the free
 * thread contexts of its 16 TCG cores. Two policies are modelled:
 *
 *  - HardwareLaxity: the paper's laxity-aware hardware scheduler.
 *    Chain-table pop picks the least-laxity task, a dispatch decision
 *    takes a few cycles, and cores issue with laxity-aware slot
 *    arbitration.
 *  - SoftwareDeadline: the Deadline Scheduler baseline of Fig. 21.
 *    Scheduling happens in software at quantum boundaries using the
 *    remaining time snapshot, and every dispatch pays a software
 *    overhead, so placement is stale and serialised.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/tcg_core.hpp"
#include "sched/chain_table.hpp"
#include "sched/shed.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/task.hpp"

namespace smarco::sched {

/** Scheduling policy of a sub-scheduler. */
enum class SchedPolicy { HardwareLaxity, SoftwareDeadline };

/** Configuration of one sub-ring scheduler. */
struct SubSchedulerParams {
    SchedPolicy policy = SchedPolicy::HardwareLaxity;
    /** Decision latency of the hardware scheduler (cycles). */
    Cycle hwDecisionLatency = 4;
    /** Software scheduler wakes up once per quantum. */
    Cycle swQuantum = 2000;
    /** Serial software cost per dispatched task. */
    Cycle swDispatchOverhead = 120;
    std::uint32_t chainCapacity = 512;
};

/** Record of one completed task (Fig. 21 raw data). */
struct TaskExit {
    TaskId taskId = 0;
    CoreId core = 0;
    Cycle finish = 0;
    Cycle deadline = kNoCycle;
    bool metDeadline = true;
};

/**
 * The sub-ring scheduler. It is built with a stream factory (which
 * builds the task's micro-op stream with the core's address layout)
 * and a staging function (the SPM DMA prefetch). Every dispatch takes
 * a ticket that indexes the scheduler's table of dispatched tasks
 * from dispatch to exit: staging gets the ticket and hands it back
 * through staged(), which attaches the task under it, the heartbeat
 * reads its progress and kills it by it, and the core reports the
 * task's exit, finished or killed, with it. Task ids are labels.
 */
class SubScheduler : public Ticking
{
  public:
    /** Build the instruction stream of a task placed on a core. */
    using StreamFactory = std::function<isa::StreamPtr(
        const workloads::TaskSpec &, CoreId)>;
    /** Stage task input into the core's SPM; call staged(ticket)
     *  when ready. */
    using StageFn = std::function<void(
        CoreId, const workloads::TaskSpec &, std::uint32_t ticket)>;

    SubScheduler(Simulator &sim, SubSchedulerParams params,
                 std::uint32_t sub_ring_id, StreamFactory make_stream,
                 StageFn stage, const std::string &stat_prefix);

    /** Register a core of this sub-ring (in ring order) and install
     *  this scheduler as its exit handler. */
    void addCore(core::TcgCore *core);

    /** Staging of ticket's task ended: attach it to its core. */
    void staged(std::uint32_t ticket);

    /**
     * Enqueue a task for dispatch (from the main scheduler). The
     * task's observer, if any, hears its completion or shed.
     */
    void submit(const workloads::TaskSpec &task);

    /**
     * Turn on heartbeat hang detection and kill/re-dispatch recovery.
     * Off by default: a fault-free run pays nothing, and a killed
     * task is abandoned at once.
     */
    void enableRecovery(const RecoveryParams &params);

    /**
     * Turn on deadline-aware shedding: tasks whose deadline has
     * become unreachable are dropped at pop time (early drop: the
     * chip never wastes a context on a doomed request), and a full
     * chain table sheds the overflowing task back to its observer
     * instead of aborting the run. Off by default.
     */
    void enableShedding();

    void tick(Cycle now) override;
    bool busy() const override;
    /**
     * HardwareLaxity: sleep when the table is empty or no core has a
     * free context (submit() and task exits wake us), else until the
     * decision latency and the earliest release both elapse.
     * SoftwareDeadline: sleep until the next quantum boundary (the
     * boundary tick runs even with an empty table, like the software
     * loop it models).
     */
    Cycle nextActiveCycle(Cycle now) const override;

    /** Queued + staged-but-unfinished tasks (load metric). */
    std::uint64_t load() const;
    std::uint64_t pendingTasks() const { return table_.size(); }
    std::uint64_t tasksCompleted() const { return exits_.size(); }
    std::uint64_t deadlineMisses() const
    { return static_cast<std::uint64_t>(misses_.value()); }

    const std::vector<TaskExit> &exits() const { return exits_; }

  private:
    /** Early-drop a queued task whose deadline became unreachable. */
    void dropExpired(const workloads::TaskSpec &task, Cycle now);
    void dispatchOne(const workloads::TaskSpec &task, Cycle now);
    /** Core with the most unreserved free contexts; -1 when none. */
    std::int32_t pickCore() const;
    /** A core reported ticket's task finished or killed. */
    void onTaskExit(std::uint32_t ticket, Cycle when, bool finished);
    /** Recovery: a core reported the task killed (not completed). */
    void onTaskFailed(const workloads::TaskSpec &task, Cycle now);
    /** Heartbeat scan: kill tasks whose progress counter froze. */
    void heartbeat(Cycle now);

    /** One dispatched task, from dispatch to exit. */
    struct Dispatch {
        workloads::TaskSpec task;
        std::uint32_t slot = 0; ///< its core's index in cores_
        /** Heartbeat: watched from attach to exit or hang kill; its
         *  progress last moved to lastOps at cycle lastChange. */
        bool watched = false;
        Cycle at = 0;           ///< dispatch cycle
        std::uint64_t lastOps = 0;
        Cycle lastChange = 0;
    };

    Simulator &sim_;
    SubSchedulerParams params_;
    std::uint32_t id_;
    std::vector<core::TcgCore *> cores_;
    /** Contexts promised to staged-but-unattached tasks, per core. */
    std::vector<std::uint32_t> reserved_;
    TaskChainTable table_;
    StreamFactory makeStream_;
    StageFn stage_;
    Cycle nextDecision_ = 0;
    Cycle nextQuantum_ = 0;
    /** Dispatched tasks by ticket; a ticket on freeTickets_ (LIFO)
     *  is unused, every other one staged or running. Recovery keeps
     *  no other per-task state: a retry counts its own failures. */
    std::vector<Dispatch> dispatches_;
    std::vector<std::uint32_t> freeTickets_;
    std::vector<TaskExit> exits_;

    bool sheddingOn_ = false;

    bool recoveryOn_ = false;
    RecoveryParams recovery_;
    Cycle nextHeartbeat_ = 0;
    /** Dispatches watched by the heartbeat; it runs while any is. */
    std::uint32_t watched_ = 0;

    Scalar submitted_;
    Scalar dispatched_;
    Scalar misses_;
    Scalar redispatches_;
    Scalar hangKills_;
    Scalar tasksAbandoned_;
    Average queueDelay_;
    Histogram redispatchDelay_;
    Scalar expired_;
    Scalar shedOverflow_;
};

} // namespace smarco::sched
