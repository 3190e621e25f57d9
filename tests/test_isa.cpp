/**
 * @file
 * Unit tests of the micro-op model and instruction streams.
 */
#include <vector>

#include <gtest/gtest.h>

#include "isa/instr_stream.hpp"
#include "isa/micro_op.hpp"

using namespace smarco;
using namespace smarco::isa;

TEST(MicroOp, Predicates)
{
    MicroOp op;
    op.kind = OpKind::Load;
    EXPECT_TRUE(op.isMem());
    EXPECT_FALSE(op.isStore());
    op.kind = OpKind::Store;
    EXPECT_TRUE(op.isMem());
    EXPECT_TRUE(op.isStore());
    op.kind = OpKind::Alu;
    EXPECT_FALSE(op.isMem());
}

TEST(MicroOp, DefaultsAreBenign)
{
    MicroOp op;
    EXPECT_EQ(op.kind, OpKind::Alu);
    EXPECT_EQ(op.memClass, MemClass::None);
    EXPECT_EQ(op.execLatency, 1);
    EXPECT_FALSE(op.mispredict);
    EXPECT_FALSE(op.priority);
}

TEST(MicroOp, ToStringCoversAllKinds)
{
    EXPECT_EQ(toString(OpKind::Alu), "alu");
    EXPECT_EQ(toString(OpKind::Mul), "mul");
    EXPECT_EQ(toString(OpKind::Fp), "fp");
    EXPECT_EQ(toString(OpKind::Branch), "branch");
    EXPECT_EQ(toString(OpKind::Load), "load");
    EXPECT_EQ(toString(OpKind::Store), "store");
    EXPECT_EQ(toString(OpKind::Halt), "halt");
    EXPECT_EQ(toString(MemClass::None), "none");
    EXPECT_EQ(toString(MemClass::SpmLocal), "spm-local");
    EXPECT_EQ(toString(MemClass::SpmRemote), "spm-remote");
    EXPECT_EQ(toString(MemClass::Heap), "heap");
    EXPECT_EQ(toString(MemClass::Stream), "stream");
}

TEST(TraceStream, ReplaysInOrder)
{
    std::vector<MicroOp> ops(3);
    ops[0].kind = OpKind::Alu;
    ops[1].kind = OpKind::Load;
    ops[2].kind = OpKind::Halt;
    TraceStream s(ops);
    EXPECT_EQ(s.remaining(), 3u);

    MicroOp op;
    std::vector<OpKind> kinds;
    while (s.next(op))
        kinds.push_back(op.kind);
    EXPECT_EQ(kinds, (std::vector<OpKind>{OpKind::Alu, OpKind::Load,
                                          OpKind::Halt}));
    EXPECT_FALSE(s.next(op));
    EXPECT_EQ(s.remaining(), 0u);
}

TEST(TraceStream, EmptyStreamEndsImmediately)
{
    TraceStream s({});
    MicroOp op;
    EXPECT_FALSE(s.next(op));
}
