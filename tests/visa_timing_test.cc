/**
 * @file
 * Unit tests of the VisaTimer recurrence and stall rules in isolation:
 * the exact cycle math every higher layer (the in-order loop and the
 * WCET analyzer) depends on.
 */

#include <gtest/gtest.h>

#include "cpu/visa_timing.hh"

namespace visa
{
namespace
{

TimingRecord
alu(Cycles lat = 1)
{
    TimingRecord r;
    r.exLatency = lat;
    return r;
}

TEST(VisaTimerTest, SingleInstructionTakesSixStages)
{
    VisaTimer t;
    t.reset();
    t.consume(alu());
    // IF 0, ID 1, RR 2, EX 3, MEM 4, WB 5 -> done after 6 cycles.
    EXPECT_EQ(t.totalCycles(), 6u);
}

TEST(VisaTimerTest, PipelinedAluThroughput)
{
    VisaTimer t;
    t.reset();
    for (int i = 0; i < 10; ++i)
        t.consume(alu());
    EXPECT_EQ(t.totalCycles(), 15u);    // 6 + 9
}

TEST(VisaTimerTest, IcacheMissDelaysEverything)
{
    VisaTimer t;
    t.reset();
    TimingRecord r = alu();
    r.imissPenalty = 100;
    t.consume(r);
    EXPECT_EQ(t.totalCycles(), 106u);
}

TEST(VisaTimerTest, DcacheMissBlocksMemoryStage)
{
    VisaTimer t;
    t.reset();
    TimingRecord ld = alu();
    ld.dmissPenalty = 100;
    t.consume(ld);
    EXPECT_EQ(t.totalCycles(), 106u);
    t.consume(alu());
    // The next instruction waits for the memory stage to free.
    EXPECT_EQ(t.totalCycles(), 107u);
}

TEST(VisaTimerTest, UnpipelinedFuOccupancy)
{
    VisaTimer a, b;
    a.reset();
    b.reset();
    a.consume(alu(35));
    a.consume(alu(35));
    b.consume(alu(35));
    b.consume(alu(1));
    EXPECT_EQ(a.totalCycles() - b.totalCycles(), 34u);
}

TEST(VisaTimerTest, LoadUseStallsOneCycle)
{
    VisaTimer dep, indep;
    dep.reset();
    indep.reset();
    TimingRecord ld = alu();    // a hitting load
    dep.consume(ld);
    indep.consume(ld);
    TimingRecord use = alu();
    use.loadUseStall = true;
    dep.consume(use);
    indep.consume(alu());
    EXPECT_EQ(dep.totalCycles(), indep.totalCycles() + 1);
}

TEST(VisaTimerTest, LoadUseAfterMissingLoadStillCostsOneCycle)
{
    // When the load misses, both versions stall on the blocked memory
    // stage; the dependent additionally waits for the loaded value
    // before entering execute, serializing one more cycle.
    VisaTimer dep, indep;
    dep.reset();
    indep.reset();
    TimingRecord ld = alu();
    ld.dmissPenalty = 100;
    dep.consume(ld);
    indep.consume(ld);
    TimingRecord use = alu();
    use.loadUseStall = true;
    dep.consume(use);
    indep.consume(alu());
    EXPECT_EQ(dep.totalCycles(), indep.totalCycles() + 1);
}

TEST(VisaTimerTest, RedirectCostsFourCycles)
{
    VisaTimer mis, ok;
    mis.reset();
    ok.reset();
    TimingRecord br = alu();
    br.redirect = true;
    mis.consume(br);
    ok.consume(alu());
    for (int i = 0; i < 3; ++i) {
        mis.consume(alu());
        ok.consume(alu());
    }
    EXPECT_EQ(mis.totalCycles(), ok.totalCycles() + 4);
}

TEST(VisaTimerTest, RedirectAtEndHasNoTrailingCost)
{
    // A redirect on the last instruction doesn't extend its own WB.
    VisaTimer mis, ok;
    mis.reset();
    ok.reset();
    TimingRecord br = alu();
    br.redirect = true;
    mis.consume(br);
    ok.consume(alu());
    EXPECT_EQ(mis.totalCycles(), ok.totalCycles());
}

TEST(VisaTimerTest, CopyForksPipelineState)
{
    VisaTimer t;
    t.reset();
    t.consume(alu());
    VisaTimer fork = t;
    t.consume(alu(35));
    fork.consume(alu(1));
    EXPECT_GT(t.totalCycles(), fork.totalCycles());
    EXPECT_EQ(fork.totalCycles(), 7u);
}

TEST(VisaTimerTest, InstructionCountTracks)
{
    VisaTimer t;
    t.reset();
    for (int i = 0; i < 5; ++i)
        t.consume(alu());
    EXPECT_EQ(t.instructions(), 5u);
    t.reset();
    EXPECT_EQ(t.instructions(), 0u);
}

TEST(VisaTimerTest, MissUnderDivOverlapsFetchStall)
{
    // An I-miss for a later instruction can be absorbed under a long
    // divide occupying the execute stage (fetch runs ahead).
    VisaTimer overlap, base;
    overlap.reset();
    base.reset();
    overlap.consume(alu(35));    // div
    base.consume(alu(35));
    TimingRecord missing = alu();
    missing.imissPenalty = 20;
    overlap.consume(missing);
    base.consume(alu());
    // The 20-cycle fetch penalty hides under the 35-cycle divide.
    EXPECT_EQ(overlap.totalCycles(), base.totalCycles());
}

Instruction
make(Opcode op, std::uint8_t rd, std::uint8_t rs, std::uint8_t rt = 0)
{
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rs = rs;
    i.rt = rt;
    return i;
}

TEST(VisaTimerTest, StepDecidesTheInterlockFromThePreviousInstruction)
{
    const Instruction ld = make(Opcode::LW, 5, 4);        // r5 <- [r4]
    const Instruction use = make(Opcode::ADD, 6, 5, 0);   // reads r5
    const Instruction indep = make(Opcode::ADD, 6, 7, 0);
    VisaTimer dep, free;
    for (VisaTimer *t : {&dep, &free})
        t->step(ld, 0, 0, false);
    dep.step(use, 0, 0, false);
    free.step(indep, 0, 0, false);
    EXPECT_EQ(dep.totalCycles(), free.totalCycles() + 1);

    // reset() forgets the predecessor: no interlock across a drain.
    VisaTimer drained, fresh;
    drained.step(ld, 0, 0, false);
    drained.reset();
    drained.step(use, 0, 0, false);
    fresh.step(use, 0, 0, false);
    EXPECT_EQ(drained.totalCycles(), fresh.totalCycles());
}

TEST(VisaTimerTest, StepRedirectsOnIndirectJumpsAndMispredictedBranches)
{
    const Instruction jr = make(Opcode::JR, 0, 31);
    const Instruction beq = make(Opcode::BEQ, 0, 4, 5);
    const Instruction add = make(Opcode::ADD, 6, 7, 8);
    VisaTimer t;
    EXPECT_TRUE(t.step(jr, 0, 0, false));    // targets never predicted
    EXPECT_FALSE(t.step(beq, 0, 0, false));
    EXPECT_TRUE(t.step(beq, 0, 0, true));
    EXPECT_FALSE(t.step(add, 0, 0, true));   // flag ignored off branches
}

} // anonymous namespace
} // namespace visa
