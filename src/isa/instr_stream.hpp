/**
 * @file
 * Instruction stream abstraction consumed by pipeline models.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/micro_op.hpp"

namespace smarco::isa {

/**
 * A sequential source of micro-ops for one hardware thread. Streams
 * are pull-based: the pipeline fetches the next op when it has an
 * issue slot for the thread.
 */
class InstrStream
{
  public:
    virtual ~InstrStream() = default;

    /**
     * Produce the next micro-op.
     * @return false when the stream is exhausted (op untouched).
     */
    virtual bool next(MicroOp &op) = 0;
};

/**
 * Fixed pre-recorded stream, mainly for unit tests and replays.
 */
class TraceStream : public InstrStream
{
  public:
    explicit TraceStream(std::vector<MicroOp> ops);

    bool next(MicroOp &op) override;

    /** Remaining micro-ops. */
    std::size_t remaining() const { return ops_.size() - pos_; }

  private:
    std::vector<MicroOp> ops_;
    std::size_t pos_ = 0;
};

/** Owning handle to a stream. */
using StreamPtr = std::unique_ptr<InstrStream>;

} // namespace smarco::isa
