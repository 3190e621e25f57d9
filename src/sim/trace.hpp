/**
 * @file
 * Chrome-trace / Perfetto event tracing for the simulator.
 *
 * A TraceManager belongs to one Simulator and emits trace events into
 * a shared TraceSink (normally one JSON file per process; each
 * simulator run appears as its own "process" track, keyed by run id).
 * Timestamps are simulated cycles mapped 1:1 onto the trace's
 * microsecond axis, so a Perfetto "1 ms" ruler division reads as
 * 1000 cycles.
 *
 * The disabled path is near-free: every public emit call is an inline
 * bitmask test that falls through without formatting anything. Call
 * sites that build argument strings should additionally guard with
 * enabled(cat) so the formatting itself is skipped when off.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "sim/types.hpp"

namespace smarco {

/** Trace event categories, one bit each (combine with |). */
enum class TraceCat : std::uint32_t {
    Core    = 1u << 0, ///< pipeline: task execution, stalls, starvation
    Noc     = 1u << 1, ///< rings: packet inject / eject, hop latency
    Mem     = 1u << 2, ///< MACT collection/flush, DRAM channel traffic
    Sched   = 1u << 3, ///< main/sub scheduler routing and task spans
    Runtime = 1u << 4, ///< programming frameworks (MapReduce phases)
    Sim     = 1u << 5, ///< kernel: run spans, interval-sampler counters
    Fault   = 1u << 6, ///< fault campaign: injections, recoveries
};

/** Bitmask covering every category. */
inline constexpr std::uint32_t kAllTraceCats = 0x7f;

/** Lower-case name of a single category ("core", "noc", ...). */
const char *traceCatName(TraceCat cat);

/**
 * Parse a comma-separated category list ("core,noc,sched") into a
 * bitmask. Empty or "all" selects every category; an unknown name
 * makes the whole list invalid (nullopt).
 */
std::optional<std::uint32_t> parseTraceCategories(const std::string &spec);

/**
 * Serialisation point of a trace stream: owns the comma/bracket state
 * of the JSON event array and the event count. One sink is shared by
 * every simulator run writing to the same file.
 */
class TraceSink
{
  public:
    /** Attach to an open stream; writes the JSON header. */
    explicit TraceSink(std::ostream &os);
    /** Writes the JSON footer. */
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Append one pre-formatted event object. */
    void append(const std::string &event_json);

    std::uint64_t eventCount() const { return events_; }

  private:
    std::ostream &os_;
    std::uint64_t events_ = 0;
};

/**
 * Per-simulator trace event emitter. Disabled (default-constructed)
 * managers reject every event with one inline mask test.
 */
class TraceManager
{
  public:
    TraceManager() = default;

    /** Route events with the given category mask into sink. */
    void enable(TraceSink *sink, std::uint32_t category_mask,
                std::uint32_t run_id);

    /** True when any category is being recorded. */
    bool enabled() const { return mask_ != 0; }
    /** True when events of this category are being recorded. */
    bool enabled(TraceCat cat) const
    { return (mask_ & static_cast<std::uint32_t>(cat)) != 0; }

    /**
     * Duration ("complete") event spanning [start, end] cycles.
     * args_json, when non-empty, must be a JSON object literal.
     */
    void complete(TraceCat cat, const std::string &name, Cycle start,
                  Cycle end, std::uint64_t tid = 0,
                  const std::string &args_json = std::string())
    {
        if (!enabled(cat))
            return;
        emitComplete(cat, name, start, end, tid, args_json);
    }

    /** Instant event at one cycle. */
    void instant(TraceCat cat, const std::string &name, Cycle now,
                 std::uint64_t tid = 0,
                 const std::string &args_json = std::string())
    {
        if (!enabled(cat))
            return;
        emitInstant(cat, name, now, tid, args_json);
    }

    /** Counter event: one named time-series value at a cycle. */
    void counter(TraceCat cat, const std::string &name, Cycle now,
                 double value)
    {
        if (!enabled(cat))
            return;
        emitCounter(cat, name, now, value);
    }

    /** Name this run's process track in the trace viewer. */
    void labelRun(const std::string &label);

  private:
    void emitComplete(TraceCat cat, const std::string &name,
                      Cycle start, Cycle end, std::uint64_t tid,
                      const std::string &args_json);
    void emitInstant(TraceCat cat, const std::string &name, Cycle now,
                     std::uint64_t tid, const std::string &args_json);
    void emitCounter(TraceCat cat, const std::string &name, Cycle now,
                     double value);

    TraceSink *sink_ = nullptr;
    std::uint32_t mask_ = 0;
    std::uint32_t runId_ = 0;
};

} // namespace smarco
