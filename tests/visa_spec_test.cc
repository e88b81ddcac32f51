/**
 * @file
 * The Table 1 contract: the VisaSpec parameters, their propagation
 * into the analyzer and the memory system, and the pipeline facts the
 * paper states in §3.1 (six stages, four-cycle redirect, R10K
 * latencies, merged BTB).
 */

#include <gtest/gtest.h>

#include "core/visa_spec.hh"
#include "cpu/simple_cpu.hh"
#include "cpu/visa_timing.hh"
#include "isa/assembler.hh"
#include "power/dvs.hh"

namespace visa
{
namespace
{

TEST(VisaSpecTest, TableOneParameters)
{
    VisaSpec spec;
    EXPECT_EQ(spec.pipelineStages, 6);
    EXPECT_EQ(spec.mispredictPenalty, 4);
    EXPECT_EQ(spec.icache.sizeBytes, 64u * 1024u);
    EXPECT_EQ(spec.icache.assoc, 4u);
    EXPECT_EQ(spec.icache.blockBytes, 64u);
    EXPECT_EQ(spec.dcache.sizeBytes, 64u * 1024u);
    EXPECT_DOUBLE_EQ(spec.memStallNs, 100.0);
}

TEST(VisaSpecTest, PropagatesToAnalyzerAndMemory)
{
    VisaSpec spec;
    AnalyzerParams ap = spec.analyzerParams();
    EXPECT_EQ(ap.icache.sizeBytes, spec.icache.sizeBytes);
    EXPECT_DOUBLE_EQ(ap.memStallNs, spec.memStallNs);
    MemCtrlParams mp = spec.memCtrlParams();
    EXPECT_DOUBLE_EQ(mp.accessNs, 100.0);
    MemController mc(mp);
    EXPECT_EQ(mc.stallCycles(1000), 100u);
}

TEST(VisaSpecTest, AnalyzerPenaltyIsTheMemoryStall)
{
    // Invariant T1 needs the analyzer to charge exactly the stall the
    // memory controller imposes, at every operating point of both the
    // baseline table and simple-fixed's 1.5x table.
    VisaSpec spec;
    const Program prog = assemble("halt\n");
    const WcetAnalyzer analyzer(prog, spec.analyzerParams());
    const MemController mc(spec.memCtrlParams());
    for (const double mult : {1.0, 1.5}) {
        const DvsTable dvs(mult);
        for (const DvsSetting &s : dvs.settings()) {
            EXPECT_EQ(analyzer.missPenalty(s.freq), mc.stallCycles(s.freq))
                << s.freq << " MHz";
            EXPECT_EQ(mc.stallCycles(s.freq),
                      nsToCycles(spec.memStallNs, s.freq));
        }
    }
}

TEST(VisaSpecTest, SimulatorCachesMatchTheSpec)
{
    VisaSpec spec;
    CacheParams ic = visaICacheParams();
    EXPECT_EQ(ic.sizeBytes, spec.icache.sizeBytes);
    EXPECT_EQ(ic.assoc, spec.icache.assoc);
    EXPECT_EQ(ic.blockBytes, spec.icache.blockBytes);
    CacheParams dc = visaDCacheParams();
    EXPECT_EQ(dc.sizeBytes, spec.dcache.sizeBytes);
}

TEST(VisaSpecTest, PipelineDepthMatchesTheRecurrence)
{
    // One hit instruction traverses exactly pipelineStages cycles.
    VisaSpec spec;
    VisaTimer t;
    t.reset();
    TimingRecord r;
    t.consume(r);
    EXPECT_EQ(t.totalCycles(),
              static_cast<Cycles>(spec.pipelineStages));
}

TEST(VisaSpecTest, RedirectPenaltyMatchesTheRecurrence)
{
    // The four-cycle misprediction penalty (§3.1: "four stages
    // between fetch and execute").
    VisaSpec spec;
    VisaTimer mis, ok;
    mis.reset();
    ok.reset();
    TimingRecord br;
    br.redirect = true;
    mis.consume(br);
    ok.consume(TimingRecord{});
    for (int i = 0; i < 2; ++i) {
        mis.consume(TimingRecord{});
        ok.consume(TimingRecord{});
    }
    EXPECT_EQ(mis.totalCycles() - ok.totalCycles(),
              static_cast<Cycles>(spec.mispredictPenalty));
}

TEST(VisaSpecTest, R10kLatenciesAreTheContract)
{
    // Table 1: "execution latencies: MIPS R10K latencies."
    EXPECT_EQ(latencyOf(Opcode::ADD), 1u);
    EXPECT_EQ(latencyOf(Opcode::MUL), 6u);
    EXPECT_EQ(latencyOf(Opcode::DIV), 35u);
    EXPECT_EQ(latencyOf(Opcode::ADD_D), 2u);
    EXPECT_EQ(latencyOf(Opcode::MUL_D), 2u);
    EXPECT_EQ(latencyOf(Opcode::DIV_D), 19u);
}

} // anonymous namespace
} // namespace visa
