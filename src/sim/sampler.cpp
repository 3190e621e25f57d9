#include "sim/sampler.hpp"

#include <utility>

#include "sim/json_writer.hpp"
#include "sim/trace.hpp"

namespace smarco {

void
IntervalSampler::setInterval(Cycle n)
{
    interval_ = n;
    nextAt_ = n;
}

void
IntervalSampler::addProbe(std::string name, Probe probe)
{
    probes_.push_back(NamedProbe{std::move(name), std::move(probe)});
}

void
IntervalSampler::sampleAt(Cycle now)
{
    std::vector<double> row;
    row.reserve(probes_.size());
    for (auto &p : probes_) {
        const double v = p.fn ? p.fn() : 0.0;
        row.push_back(v);
        if (trace_)
            trace_->counter(TraceCat::Sim, p.name, now, v);
    }
    times_.push_back(now);
    rows_.push_back(std::move(row));
    if (interval_ > 0)
        nextAt_ = now - now % interval_ + interval_;
}

std::vector<std::string>
IntervalSampler::probeNames() const
{
    std::vector<std::string> names;
    names.reserve(probes_.size());
    for (const auto &p : probes_)
        names.push_back(p.name);
    return names;
}

void
IntervalSampler::dumpCsv(std::ostream &os) const
{
    os << "cycle";
    for (const auto &p : probes_)
        os << ',' << p.name;
    os << '\n';
    for (std::size_t i = 0; i < times_.size(); ++i) {
        os << times_[i];
        for (double v : rows_[i])
            os << ',' << json::num(v);
        os << '\n';
    }
}

void
IntervalSampler::dumpJson(std::ostream &os) const
{
    os << "{\"interval\":" << interval_ << ",\"probes\":[";
    for (std::size_t i = 0; i < probes_.size(); ++i)
        os << (i ? "," : "") << json::str(probes_[i].name);
    os << "],\"samples\":[";
    for (std::size_t i = 0; i < times_.size(); ++i) {
        os << (i ? "," : "") << '[' << times_[i];
        for (double v : rows_[i])
            os << ',' << json::num(v);
        os << ']';
    }
    os << "]}";
}

} // namespace smarco
