#include "chip/smarco_chip.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::chip {

using isa::MemClass;
using isa::MicroOp;
using mem::MemRequest;
using noc::NodeId;
using noc::NodeKind;
using noc::Packet;
using noc::PacketKind;

SmarcoChip::SmarcoChip(Simulator &sim, ChipConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      memRequests_(sim.stats(), "chip.memRequests",
                   "off-core memory requests issued"),
      memLatency_(sim.stats(), "chip.memLatency",
                  "mean blocking memory request latency (cycles)"),
      priorityDirect_(sim.stats(), "chip.priorityDirect",
                      "requests served over the direct datapath")
{
    cfg_.validate();

    network_ = std::make_unique<noc::Network>(
        sim_, cfg_.noc, cfg_.dram.channels, "chip.noc");
    directPath_ = std::make_unique<noc::DirectPath>(
        sim_.stats(), cfg_.directPath, cfg_.noc.numSubRings,
        "chip.direct");
    dram_ = std::make_unique<mem::DramController>(
        sim_, cfg_.dram, "chip.dram");
    dram_->setSink([this](mem::DramJob &&job) { dramDone(std::move(job)); });

    const std::uint32_t n = cfg_.numCores();
    cores_.reserve(n);
    dmas_.reserve(n);
    for (CoreId c = 0; c < n; ++c) {
        cores_.push_back(std::make_unique<core::TcgCore>(
            sim_, cfg_.core, c, *this, strprintf("chip.core%03u", c)));
        dmas_.push_back(std::make_unique<mem::DmaEngine>(
            sim_.stats(), cfg_.core.spm.dmaChunkBytes,
            [this, c](Addr src, std::uint32_t bytes, std::uint64_t tag) {
                dmaChunk(c, src, bytes, tag);
            },
            [this, c](std::uint32_t ticket) {
                subScheds_[c / cfg_.noc.coresPerSubRing]->staged(ticket);
            },
            strprintf("chip.dma%03u", c)));
    }

    for (std::uint32_t g = 0; g < cfg_.noc.numSubRings; ++g) {
        macts_.push_back(std::make_unique<mem::Mact>(
            sim_, cfg_.mact, strprintf("chip.mact%02u", g)));
        macts_.back()->setSink([this, g](mem::MactBatch &&batch) {
            onMactBatch(g, std::move(batch));
        });
    }
    network_->setGatewayInterceptor(
        [this](std::uint32_t g, Packet &pkt) {
            return interceptAtGateway(g, pkt);
        });
    network_->setEndpointHandler([this](Packet &&pkt) {
        const std::uint32_t node = pkt.dst.index;
        if (pkt.dst.kind == NodeKind::MemCtrl)
            handleMcPacket(node, std::move(pkt));
        else if (pkt.dst.kind == NodeKind::Gateway)
            handleGatewayPacket(node, std::move(pkt));
        else
            handleCorePacket(node, std::move(pkt));
    });

    for (std::uint32_t g = 0; g < cfg_.noc.numSubRings; ++g) {
        subScheds_.push_back(std::make_unique<sched::SubScheduler>(
            sim_, cfg_.subSched, g,
            [this](const workloads::TaskSpec &task, CoreId core_id) {
                // layoutFor() rejects a task with no profile, so it
                // runs before the profile is dereferenced.
                const workloads::AddressLayout layout =
                    layoutFor(task, core_id);
                return std::make_unique<workloads::ProfileStream>(
                    *task.profile, layout, task.numOps, task.seed);
            },
            [this](CoreId core_id, const workloads::TaskSpec &task,
                   std::uint32_t ticket) {
                stageTask(core_id, task, ticket);
            },
            strprintf("chip.sched%02u", g)));
        for (std::uint32_t k = 0; k < cfg_.noc.coresPerSubRing; ++k)
            subScheds_.back()->addCore(
                cores_[g * cfg_.noc.coresPerSubRing + k].get());
    }

    // Task hand-off travels the main ring as a control packet from
    // the host-facing I/O stop to the target gateway.
    mainSched_ = std::make_unique<sched::MainScheduler>(
        sim_, cfg_.mainSched,
        [this](std::uint32_t sub_ring, const workloads::TaskSpec &t) {
            Packet pkt;
            pkt.src = NodeId{NodeKind::Io, 0};
            pkt.dst = NodeId{NodeKind::Gateway, sub_ring};
            pkt.kind = PacketKind::Control;
            pkt.payloadBytes = 32;
            pkt.payload = t;
            network_->send(std::move(pkt));
        },
        "chip.mainSched");
    for (auto &s : subScheds_)
        mainSched_->addSubScheduler(s.get());

    // Time-series probes: rates are computed over the sampling
    // interval from the cumulative counters, so the series shows
    // phase behaviour rather than a long-run average.
    if (sim_.sampler().interval() > 0) {
        sim_.sampler().addProbe(
            "ipc",
            [this, last_ops = std::uint64_t{0},
             last_cycle = Cycle{0}]() mutable {
                std::uint64_t ops = 0;
                for (const auto &c : cores_)
                    ops += c->committedOps();
                const Cycle now = sim_.now();
                const double ipc =
                    now > last_cycle
                        ? static_cast<double>(ops - last_ops) /
                              static_cast<double>(now - last_cycle)
                        : 0.0;
                last_ops = ops;
                last_cycle = now;
                return ipc;
            });
        sim_.sampler().addProbe("noc.inFlight", [this]() {
            return static_cast<double>(network_->totalInFlight());
        });
        sim_.sampler().addProbe(
            "dram.bytesPerCycle",
            [this, last_bytes = 0.0, last_cycle = Cycle{0}]() mutable {
                const double bytes = dram_->totalBytes();
                const Cycle now = sim_.now();
                const double bw =
                    now > last_cycle
                        ? (bytes - last_bytes) /
                              static_cast<double>(now - last_cycle)
                        : 0.0;
                last_bytes = bytes;
                last_cycle = now;
                return bw;
            });
        sim_.sampler().addProbe("sched.ready", [this]() {
            std::uint64_t ready = 0;
            for (const auto &s : subScheds_)
                ready += s->pendingTasks();
            return static_cast<double>(ready);
        });
    }
}

SmarcoChip::~SmarcoChip() = default;

void
SmarcoChip::submit(const std::vector<workloads::TaskSpec> &tasks)
{
    for (const auto &t : tasks)
        mainSched_->submit(t);
}

void
SmarcoChip::submitTo(std::uint32_t sub_ring,
                     const workloads::TaskSpec &task)
{
    subScheds_[sub_ring]->submit(task);
}

void
SmarcoChip::submitRequest(const workloads::TaskSpec &task)
{
    mainSched_->submit(task);
}

void
SmarcoChip::enableOverloadControl(const sched::AdmissionParams &params)
{
    if (params.subQueueCap > cfg_.subSched.chainCapacity)
        fatal("chip %s: admission cap %u exceeds chain capacity %u",
              cfg_.name.c_str(), params.subQueueCap,
              cfg_.subSched.chainCapacity);
    mainSched_->enableAdmission(params);
    for (auto &s : subScheds_)
        s->enableShedding();
    if (sim_.sampler().interval() > 0)
        sim_.sampler().addProbe("sched.shed", [this]() {
            return static_cast<double>(mainSched_->tasksShed());
        });
}

Cycle
SmarcoChip::runUntilDone(Cycle max_cycles)
{
    const Cycle end = sim_.run(max_cycles);
    if (!sim_.finishedIdle())
        warn("chip %s: run hit the %llu-cycle limit before draining",
             cfg_.name.c_str(),
             static_cast<unsigned long long>(max_cycles));
    return end;
}

ChipMetrics
SmarcoChip::metrics() const
{
    ChipMetrics m;
    m.cycles = sim_.now();
    for (const auto &c : cores_) {
        m.opsCommitted += c->committedOps();
        m.slotsOffered += c->slotsOffered();
        m.slotsUsed += c->slotsUsed();
    }
    for (const auto &s : subScheds_) {
        m.tasksCompleted += s->tasksCompleted();
        m.deadlineMisses += s->deadlineMisses();
        for (const auto &e : s->exits())
            m.lastTaskFinish = std::max(m.lastTaskFinish, e.finish);
    }
    m.avgMemLatency = memLatency_.value();
    m.nocUtilisation = network_->utilisation(m.cycles);
    m.dramRequests = dram_->requestsServed();
    return m;
}

workloads::AddressLayout
SmarcoChip::layoutFor(const workloads::TaskSpec &task,
                      CoreId core_id) const
{
    if (!task.profile)
        panic("task %llu has no profile",
              static_cast<unsigned long long>(task.id));
    const mem::MemoryMap map = cfg_.map();
    const std::uint32_t cps = cfg_.noc.coresPerSubRing;
    const std::uint32_t ring = core_id / cps;
    const std::uint32_t local = core_id % cps;
    const CoreId neighbour = ring * cps + (local + 1) % cps;

    workloads::AddressLayout layout;
    layout.spmLocalBase = map.spmBaseOf(core_id);
    layout.spmLocalSize = cores_[core_id]->spm().dataBytes();
    layout.spmRemoteBase = map.spmBaseOf(neighbour);
    layout.spmRemoteSize = cores_[neighbour]->spm().dataBytes();
    layout.heapBase = map.dramBase +
        static_cast<Addr>(core_id) * cfg_.heapStride;
    layout.heapSize = task.profile->heapWorkingSet;
    layout.streamBase = map.dramBase +
        static_cast<Addr>(cfg_.numCores()) * cfg_.heapStride +
        static_cast<Addr>(core_id) * cfg_.streamStride;
    layout.streamSize = task.profile->streamWorkingSet;
    return layout;
}

NodeId
SmarcoChip::mcNodeFor(Addr addr) const
{
    return NodeId{NodeKind::MemCtrl, dram_->channelOf(addr)};
}

void
SmarcoChip::request(CoreId core_id, ThreadId thread, const MicroOp &op,
                    mem::AccessClass access)
{
    ++memRequests_;
    MemRequest req{.write = op.isStore(), .access = access,
                   .addr = op.addr, .bytes = op.size,
                   .priority = op.priority, .core = core_id,
                   .thread = thread, .issued = sim_.now()};

    if (op.memClass == MemClass::SpmRemote) {
        const mem::MemoryMap map = cfg_.map();
        const CoreId owner =
            map.isSpm(op.addr) ? map.spmOwner(op.addr) : core_id;
        sendRequest(req, NodeId{NodeKind::Core, owner},
                    PacketKind::SpmRemoteReq);
        return;
    }

    // Heap fills and stream accesses go to DRAM.
    if (viaDirectPath(req))
        sendViaDirectPath(req);
    else
        sendRequest(req, mcNodeFor(op.addr),
                    op.isStore() ? PacketKind::MemWriteReq
                                 : PacketKind::MemReadReq);
}

void
SmarcoChip::writeback(CoreId core_id, Addr line_addr)
{
    sendRequest(MemRequest{.write = true,
                           .access = mem::AccessClass::Writeback,
                           .addr = line_addr, .bytes = 64,
                           .core = core_id, .issued = sim_.now()},
                mcNodeFor(line_addr), PacketKind::MemWriteReq);
}

void
SmarcoChip::sendRequest(const MemRequest &req, NodeId dst,
                        PacketKind kind)
{
    Packet pkt;
    pkt.src = NodeId{NodeKind::Core, req.core};
    pkt.dst = dst;
    pkt.kind = kind;
    // Writes carry their data; reads only the address.
    pkt.payloadBytes = req.write ? mem::kReqHeaderBytes + req.bytes
                                 : mem::kReadReqBytes;
    pkt.priority = req.priority;
    pkt.payload = req;
    network_->send(std::move(pkt));
}

void
SmarcoChip::respond(NodeId src, const MemRequest &req, PacketKind kind)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = NodeId{NodeKind::Core, req.core};
    pkt.kind = kind;
    pkt.payloadBytes = mem::kReqHeaderBytes + req.bytes;
    pkt.priority = req.priority;
    pkt.payload = req;
    network_->send(std::move(pkt));
}

void
SmarcoChip::complete(const MemRequest &req)
{
    switch (req.access) {
      case mem::AccessClass::Load:
        memLatency_.sample(static_cast<double>(sim_.now() - req.issued));
        cores_[req.core]->loadDone(req.thread);
        return;
      case mem::AccessClass::Store:
        cores_[req.core]->storeDone();
        return;
      case mem::AccessClass::Writeback:
        return;
      case mem::AccessClass::DmaChunk:
        // A staging chunk is untimed.
        dmas_[req.core]->chunkDone(req.id);
        return;
    }
}

void
SmarcoChip::sendViaDirectPath(const MemRequest &req)
{
    ++priorityDirect_;
    const Cycle there = directPath_->transfer(
        req.core / cfg_.noc.coresPerSubRing, mem::kReadReqBytes,
        sim_.now());
    sim_.events().schedule(there, [this, req]() {
        dram_->serve(req.addr, req.bytes, sim_.now(), req);
    });
}

void
SmarcoChip::dramDone(mem::DramJob &&job)
{
    if (auto *batch = std::get_if<mem::MactBatch>(&job)) {
        Packet resp;
        resp.src = mcNodeFor(batch->lineBase);
        resp.dst = NodeId{NodeKind::Gateway, batch->requests.empty()
            ? 0
            : batch->requests.front().core / cfg_.noc.coresPerSubRing};
        resp.kind = PacketKind::MactBatchResp;
        resp.payloadBytes = mem::kReqHeaderBytes + batch->coveredBytes();
        resp.payload = std::move(*batch);
        network_->send(std::move(resp));
        return;
    }
    const MemRequest &req = std::get<MemRequest>(job);
    if (viaDirectPath(req)) {
        const Cycle back = directPath_->transfer(
            req.core / cfg_.noc.coresPerSubRing,
            mem::kReqHeaderBytes + req.bytes, sim_.now());
        sim_.events().schedule(back, [this, req]() { complete(req); });
        return;
    }
    // Answered from the controller the request was sent to.
    const bool dma = req.access == mem::AccessClass::DmaChunk;
    respond(mcNodeFor(req.addr), req,
            dma ? PacketKind::DmaChunk : PacketKind::MemReadResp);
}

bool
SmarcoChip::interceptAtGateway(std::uint32_t gw, Packet &pkt)
{
    if (pkt.kind != PacketKind::MemReadReq &&
        pkt.kind != PacketKind::MemWriteReq)
        return false;
    return macts_[gw]->collect(std::get<MemRequest>(pkt.payload),
                               sim_.now());
}

void
SmarcoChip::onMactBatch(std::uint32_t gw, mem::MactBatch &&batch)
{
    Packet pkt;
    pkt.src = NodeId{NodeKind::Gateway, gw};
    pkt.dst = mcNodeFor(batch.lineBase);
    pkt.kind = PacketKind::MactBatchReq;
    pkt.payloadBytes = batch.wireBytes();
    pkt.payload = std::move(batch);
    network_->send(std::move(pkt));
}

void
SmarcoChip::handleMcPacket(std::uint32_t mc, Packet &&pkt)
{
    switch (pkt.kind) {
      case PacketKind::MemReadReq:
      case PacketKind::MemWriteReq:
      case PacketKind::DmaChunk: {
        const MemRequest &req = std::get<MemRequest>(pkt.payload);
        if (req.write) {
            // Posted write (store or writeback): complete at the
            // controller.
            dram_->serve(req.addr, req.bytes, sim_.now(), {},
                         mem::DramClass::Write);
            complete(req);
            return;
        }
        // Staging chunks ride the bulk class so they cannot queue
        // ahead of pipeline-stalling demand reads.
        dram_->serve(req.addr, req.bytes, sim_.now(), req,
                     pkt.kind == PacketKind::DmaChunk
                         ? mem::DramClass::Bulk
                         : mem::DramClass::DemandRead);
        return;
      }

      case PacketKind::MactBatchReq: {
        mem::MactBatch &batch = std::get<mem::MactBatch>(pkt.payload);
        if (batch.write) {
            // One DRAM write covering every merged store.
            dram_->serve(batch.lineBase, batch.coveredBytes(),
                         sim_.now(), {}, mem::DramClass::Write);
            for (const auto &r : batch.requests)
                complete(r);
            return;
        }
        // Read batch: one DRAM access, one response (dramDone).
        const Addr line = batch.lineBase;
        const std::uint32_t data = batch.coveredBytes();
        dram_->serve(line, data, sim_.now(), std::move(batch));
        return;
      }

      default:
        panic("mc %u: unexpected packet kind %s", mc,
              toString(pkt.kind).c_str());
    }
}

void
SmarcoChip::handleGatewayPacket(std::uint32_t gw, Packet &&pkt)
{
    if (pkt.kind == PacketKind::Control) {
        // Task hand-off from the main scheduler.
        subScheds_[gw]->submit(std::get<workloads::TaskSpec>(pkt.payload));
        return;
    }
    if (pkt.kind != PacketKind::MactBatchResp)
        panic("gateway %u: unexpected packet kind %s", gw,
              toString(pkt.kind).c_str());
    // Fan the merged line back out as per-request responses.
    for (const auto &r : std::get<mem::MactBatch>(pkt.payload).requests)
        respond(pkt.dst, r, PacketKind::MemReadResp);
}

void
SmarcoChip::handleCorePacket(CoreId core_id, Packet &&pkt)
{
    const MemRequest &req = std::get<MemRequest>(pkt.payload);
    switch (pkt.kind) {
      case PacketKind::SpmRemoteReq:
        // At the SPM's owner: a store completes, a load is answered.
        cores_[core_id]->spm().access(req.write);
        if (req.write)
            complete(req);
        else
            respond(pkt.dst, req, PacketKind::SpmRemoteResp);
        return;
      case PacketKind::MemReadResp:
      case PacketKind::SpmRemoteResp:
      case PacketKind::DmaChunk:
        complete(req);
        return;
      default:
        panic("core %u: unexpected packet kind %s", core_id,
              toString(pkt.kind).c_str());
    }
}

void
SmarcoChip::stageTask(CoreId core_id, const workloads::TaskSpec &task,
                      std::uint32_t ticket)
{
    if (task.inputBytes == 0) {
        subScheds_[core_id / cfg_.noc.coresPerSubRing]->staged(ticket);
        return;
    }
    const workloads::AddressLayout layout = layoutFor(task, core_id);
    const std::uint64_t bytes =
        std::min<std::uint64_t>(task.inputBytes,
                                layout.spmLocalSize);
    dmas_[core_id]->start(layout.streamBase, bytes, ticket);
}

void
SmarcoChip::dmaChunk(CoreId core_id, Addr src, std::uint32_t bytes,
                     std::uint64_t tag)
{
    // A staging chunk is a DRAM read answered with the data.
    sendRequest(MemRequest{.id = tag,
                           .access = mem::AccessClass::DmaChunk,
                           .addr = src, .bytes = bytes, .core = core_id,
                           .issued = sim_.now()},
                mcNodeFor(src), PacketKind::DmaChunk);
}

bool
SmarcoChip::injectCoreFault(core::ThreadFault kind, Rng &rng,
                            Cycle now)
{
    const std::uint32_t n = numCores();
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.nextBelow(n));
    for (std::uint32_t i = 0; i < n; ++i) {
        core::TcgCore &c = *cores_[(start + i) % n];
        if (c.liveContexts() > 0 &&
            c.injectThreadFault(kind, rng, now))
            return true;
    }
    return false;
}

noc::Ring &
SmarcoChip::pickRing(Rng &rng)
{
    const std::uint32_t pick = static_cast<std::uint32_t>(
        rng.nextBelow(1 + cfg_.noc.numSubRings));
    return pick == 0 ? network_->mainRing()
                     : network_->subRing(pick - 1);
}

bool
SmarcoChip::inject(fault::FaultKind kind, Rng &rng, Cycle now,
                   const fault::FaultSpec &spec)
{
    switch (kind) {
      case fault::FaultKind::CoreHang:
        return injectCoreFault(core::ThreadFault::Hang, rng, now);
      case fault::FaultKind::CoreKill:
        return injectCoreFault(core::ThreadFault::Kill, rng, now);
      case fault::FaultKind::NocDegrade: {
        noc::Ring &ring = pickRing(rng);
        const std::uint32_t stop = static_cast<std::uint32_t>(
            rng.nextBelow(ring.params().numStops));
        const std::uint32_t dir =
            static_cast<std::uint32_t>(rng.nextBelow(2));
        ring.degradeLink(stop, dir, spec.nocDegradeFactor,
                         now + spec.nocDegradeDuration);
        return true;
      }
      case fault::FaultKind::NocDup:
        pickRing(rng).armDuplicate(1);
        return true;
      case fault::FaultKind::DramStall: {
        const std::uint32_t ch = static_cast<std::uint32_t>(
            rng.nextBelow(dram_->params().channels));
        dram_->stallChannel(ch, spec.dramStallDuration, now);
        return true;
      }
      case fault::FaultKind::MactLoss: {
        const std::uint32_t n =
            static_cast<std::uint32_t>(macts_.size());
        const std::uint32_t start =
            static_cast<std::uint32_t>(rng.nextBelow(n));
        const std::uint64_t pick = rng.next();
        for (std::uint32_t i = 0; i < n; ++i) {
            mem::Mact &m = *macts_[(start + i) % n];
            if (m.occupancy() > 0)
                return m.injectEntryLoss(
                    pick, spec.mactRecoveryLatency, now);
        }
        return false;
      }
    }
    panic("chip: bad fault kind");
}

void
SmarcoChip::armContinuous(const fault::FaultSpec &spec, Rng &drop_rng)
{
    if (spec.nocDropProb > 0.0) {
        noc::RingFaultParams rf;
        rf.dropProb = spec.nocDropProb;
        rf.nackDelay = spec.nocNackDelay;
        rf.maxRetransmits = spec.nocMaxRetransmits;
        rf.rng = &drop_rng;
        network_->mainRing().setFaults(rf);
        for (std::uint32_t i = 0; i < cfg_.noc.numSubRings; ++i)
            network_->subRing(i).setFaults(rf);
    }
    for (auto &s : subScheds_)
        s->enableRecovery(spec.recovery);
}

std::uint64_t
SmarcoChip::progress() const
{
    std::uint64_t p = 0;
    for (const auto &c : cores_)
        p += c->committedOps();
    for (const auto &s : subScheds_)
        p += s->tasksCompleted();
    p += network_->packetsDelivered();
    p += dram_->requestsServed();
    return p;
}

} // namespace smarco::chip
