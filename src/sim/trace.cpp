#include "sim/trace.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "sim/json_writer.hpp"

namespace smarco {

namespace {

constexpr std::array<std::pair<TraceCat, const char *>, 7> kCatNames{{
    {TraceCat::Core, "core"},
    {TraceCat::Noc, "noc"},
    {TraceCat::Mem, "mem"},
    {TraceCat::Sched, "sched"},
    {TraceCat::Runtime, "runtime"},
    {TraceCat::Sim, "sim"},
    {TraceCat::Fault, "fault"},
}};

/** Shared prefix of every event: name, category, pid/tid. */
std::string
eventHead(TraceCat cat, const std::string &name, std::uint32_t run_id,
          std::uint64_t tid)
{
    std::string s = "{\"name\":" + json::str(name) +
        ",\"cat\":\"" + traceCatName(cat) + "\"" +
        ",\"pid\":" + std::to_string(run_id) +
        ",\"tid\":" + std::to_string(tid);
    return s;
}

std::string
argsTail(const std::string &args_json)
{
    return args_json.empty() ? std::string("}")
                             : ",\"args\":" + args_json + "}";
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    for (const auto &[c, name] : kCatNames) {
        if (c == cat)
            return name;
    }
    return "?";
}

std::optional<std::uint32_t>
parseTraceCategories(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return kAllTraceCats;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        const auto cat = std::find_if(
            kCatNames.begin(), kCatNames.end(),
            [&](const auto &entry) { return tok == entry.second; });
        if (cat == kCatNames.end())
            return std::nullopt;
        mask |= static_cast<std::uint32_t>(cat->first);
    }
    return mask;
}

TraceSink::TraceSink(std::ostream &os)
    : os_(os)
{
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

TraceSink::~TraceSink()
{
    os_ << "\n]}\n";
    os_.flush();
}

void
TraceSink::append(const std::string &event_json)
{
    if (events_ > 0)
        os_ << ",\n";
    os_ << event_json;
    ++events_;
}

void
TraceManager::enable(TraceSink *sink, std::uint32_t category_mask,
                     std::uint32_t run_id)
{
    sink_ = sink;
    mask_ = sink ? (category_mask & kAllTraceCats) : 0;
    runId_ = run_id;
}

void
TraceManager::labelRun(const std::string &label)
{
    if (!enabled())
        return;
    sink_->append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                  std::to_string(runId_) +
                  ",\"args\":{\"name\":" + json::str(label) + "}}");
}

void
TraceManager::emitComplete(TraceCat cat, const std::string &name,
                           Cycle start, Cycle end, std::uint64_t tid,
                           const std::string &args_json)
{
    const Cycle dur = end > start ? end - start : 0;
    sink_->append(eventHead(cat, name, runId_, tid) +
                  ",\"ph\":\"X\",\"ts\":" + std::to_string(start) +
                  ",\"dur\":" + std::to_string(dur) +
                  argsTail(args_json));
}

void
TraceManager::emitInstant(TraceCat cat, const std::string &name,
                          Cycle now, std::uint64_t tid,
                          const std::string &args_json)
{
    sink_->append(eventHead(cat, name, runId_, tid) +
                  ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                  std::to_string(now) + argsTail(args_json));
}

void
TraceManager::emitCounter(TraceCat cat, const std::string &name,
                          Cycle now, double value)
{
    sink_->append(eventHead(cat, name, runId_, 0) +
                  ",\"ph\":\"C\",\"ts\":" + std::to_string(now) +
                  ",\"args\":{\"value\":" + json::num(value) + "}}");
}

} // namespace smarco
