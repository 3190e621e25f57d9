/**
 * @file
 * The assembled SmarCo chip: 256 TCG cores on a hierarchical ring
 * with MACTs at the gateways, a star direct datapath, four DDR4
 * channels, per-sub-ring hardware schedulers and a main scheduler
 * (Fig. 4). This class owns all components, implements the cores'
 * MemPort by routing requests through the NoC/MACT/DRAM, and exposes
 * the measurement surface the benchmarks use.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/chip_config.hpp"
#include "core/mem_port.hpp"
#include "fault/fault_campaign.hpp"
#include "core/tcg_core.hpp"
#include "mem/dram.hpp"
#include "mem/mact.hpp"
#include "noc/direct_path.hpp"
#include "noc/network.hpp"
#include "sched/main_scheduler.hpp"
#include "sched/sub_scheduler.hpp"
#include "sim/run_record.hpp"
#include "sim/simulator.hpp"
#include "workloads/profile_stream.hpp"
#include "workloads/task.hpp"

namespace smarco::chip {

/** A SmarCo run's record plus the numbers only this chip has. */
struct ChipMetrics : RunRecord {
    double avgMemLatency = 0.0;      ///< blocking request latency
    double nocUtilisation = 0.0;
};

/**
 * The SmarCo chip. Construct with a Simulator and a ChipConfig, then
 * submit task sets through scheduler() and run the simulator.
 */
class SmarcoChip : public core::MemPort, public fault::FaultTarget
{
  public:
    SmarcoChip(Simulator &sim, ChipConfig cfg);
    ~SmarcoChip() override;

    SmarcoChip(const SmarcoChip &) = delete;
    SmarcoChip &operator=(const SmarcoChip &) = delete;

    /** Submit tasks via the main scheduler (load-balanced). */
    void submit(const std::vector<workloads::TaskSpec> &tasks);
    /** Submit one task directly to a chosen sub-ring. */
    void submitTo(std::uint32_t sub_ring,
                  const workloads::TaskSpec &task);

    /**
     * Turn on end-to-end overload control: admission + degraded-mode
     * shedding at the main scheduler and deadline early-drop at every
     * sub-scheduler, all resolved through the tasks' observers. Off by
     * default: an uncontrolled run routes and queues every task, and
     * its admission and shed counters stay zero.
     */
    void enableOverloadControl(const sched::AdmissionParams &params);

    /**
     * Submit one request through the main scheduler. The task's
     * observer (TaskSpec::observer, null for none) hears its terminal
     * outcome once: at main-scheduler shed, sub-ring overflow, early
     * drop, abandonment or exit. Same contract as
     * baseline::BaselineChip::submitRequest.
     */
    void submitRequest(const workloads::TaskSpec &task);

    /**
     * Run until all submitted work has drained (or max_cycles).
     * @return the cycle the run stopped at.
     */
    Cycle runUntilDone(Cycle max_cycles = 50'000'000);

    /** Snapshot of whole-chip metrics at the current cycle. */
    ChipMetrics metrics() const;

    // --- component access for tests and focused experiments -------------
    Simulator &sim() { return sim_; }
    const ChipConfig &config() const { return cfg_; }
    core::TcgCore &core(CoreId id) { return *cores_[id]; }
    std::uint32_t numCores() const
    { return static_cast<std::uint32_t>(cores_.size()); }
    sched::SubScheduler &subScheduler(std::uint32_t i)
    { return *subScheds_[i]; }
    sched::MainScheduler &scheduler() { return *mainSched_; }
    mem::DramController &dram() { return *dram_; }
    noc::Network &network() { return *network_; }
    mem::Mact &mact(std::uint32_t sub_ring)
    { return *macts_[sub_ring]; }

    /** Address layout a task sees when placed on a core; panics when
     *  the task names no profile. */
    workloads::AddressLayout layoutFor(const workloads::TaskSpec &task,
                                       CoreId core) const;

    // --- FaultTarget -----------------------------------------------------
    bool inject(fault::FaultKind kind, Rng &rng, Cycle now,
                const fault::FaultSpec &spec) override;
    void armContinuous(const fault::FaultSpec &spec,
                       Rng &drop_rng) override;
    std::uint64_t progress() const override;

    // --- MemPort --------------------------------------------------------
    void request(CoreId core, ThreadId thread, const isa::MicroOp &op,
                 mem::AccessClass access) override;
    void writeback(CoreId core, Addr line_addr) override;

  private:
    noc::NodeId mcNodeFor(Addr addr) const;
    /** Scan for a core with an eligible victim, starting randomly. */
    bool injectCoreFault(core::ThreadFault kind, Rng &rng, Cycle now);
    /** Ring picked uniformly among main + subs. */
    noc::Ring &pickRing(Rng &rng);
    /** Send req from its core to dst in a kind packet. */
    void sendRequest(const mem::MemRequest &req, noc::NodeId dst,
                     noc::PacketKind kind);
    /** Send req back from src to its core in a kind packet. */
    void respond(noc::NodeId src, const mem::MemRequest &req,
                 noc::PacketKind kind);
    /** Finish a request by its access class: time and wake a load,
     *  free a store's buffer slot, land a DMA chunk (untimed). */
    void complete(const mem::MemRequest &req);
    /** A real-time read takes the star datapath to DRAM and back. */
    bool viaDirectPath(const mem::MemRequest &req) const
    { return req.priority && !req.write && directPath_->enabled(); }
    void sendViaDirectPath(const mem::MemRequest &req);
    /** The chip's one DRAM completion: answer a read or a batch. */
    void dramDone(mem::DramJob &&job);
    void handleMcPacket(std::uint32_t mc, noc::Packet &&pkt);
    void handleGatewayPacket(std::uint32_t gw, noc::Packet &&pkt);
    void handleCorePacket(CoreId core, noc::Packet &&pkt);
    bool interceptAtGateway(std::uint32_t gw, noc::Packet &pkt);
    void onMactBatch(std::uint32_t gw, mem::MactBatch &&batch);
    /** Stage task's input into core's SPM; the core's sub-scheduler
     *  gets ticket back through staged() when it lands. */
    void stageTask(CoreId core, const workloads::TaskSpec &task,
                   std::uint32_t ticket);
    /** Move one chunk of DMA transfer tag from DRAM to core's SPM. */
    void dmaChunk(CoreId core, Addr src, std::uint32_t bytes,
                  std::uint64_t tag);

    Simulator &sim_;
    ChipConfig cfg_;
    std::unique_ptr<noc::Network> network_;
    std::unique_ptr<noc::DirectPath> directPath_;
    std::unique_ptr<mem::DramController> dram_;
    std::vector<std::unique_ptr<core::TcgCore>> cores_;
    std::vector<std::unique_ptr<mem::DmaEngine>> dmas_;
    std::vector<std::unique_ptr<mem::Mact>> macts_;
    std::vector<std::unique_ptr<sched::SubScheduler>> subScheds_;
    std::unique_ptr<sched::MainScheduler> mainSched_;

    Scalar memRequests_;
    Average memLatency_;
    Scalar priorityDirect_;
};

} // namespace smarco::chip
