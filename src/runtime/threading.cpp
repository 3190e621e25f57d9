#include "runtime/threading.hpp"

#include "sim/logging.hpp"

namespace smarco::runtime {

ThreadApi::ThreadApi(chip::SmarcoChip &chip)
    : chip_(chip)
{
}

ThreadHandle
ThreadApi::threadCreate(const workloads::TaskSpec &task)
{
    auto handle = std::make_shared<ThreadResult>();
    handles_.push_back(handle);
    ++created_;

    // Submit through the main scheduler; the request hook fills the
    // handle in when the task completes.
    chip_.submitRequest(task,
        [handle](const workloads::TaskSpec &,
                 const chip::SmarcoChip::RequestResult &res) {
            if (!res.completed)
                return;
            handle->finished = true;
            handle->finishCycle = res.when;
            handle->core = res.core;
        });
    return handle;
}

std::vector<ThreadHandle>
ThreadApi::threadCreateAll(const std::vector<workloads::TaskSpec> &tasks)
{
    std::vector<ThreadHandle> out;
    out.reserve(tasks.size());
    for (const auto &t : tasks)
        out.push_back(threadCreate(t));
    return out;
}

Cycle
ThreadApi::joinAll(Cycle max_cycles)
{
    const Cycle end = chip_.runUntilDone(max_cycles);
    for (const auto &h : handles_) {
        if (!h->finished)
            warn("ThreadApi::joinAll: a thread did not finish within "
                 "%llu cycles",
                 static_cast<unsigned long long>(max_cycles));
    }
    return end;
}

std::uint64_t
ThreadApi::finished() const
{
    std::uint64_t n = 0;
    for (const auto &h : handles_)
        n += h->finished ? 1 : 0;
    return n;
}

} // namespace smarco::runtime
