#include "isa/instr_stream.hpp"

#include <utility>

namespace smarco::isa {

TraceStream::TraceStream(std::vector<MicroOp> ops)
    : ops_(std::move(ops))
{
}

bool
TraceStream::next(MicroOp &op)
{
    if (pos_ >= ops_.size())
        return false;
    op = ops_[pos_++];
    return true;
}

} // namespace smarco::isa
