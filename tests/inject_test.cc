/**
 * @file
 * Tests for the fault-injection matrix (verify/inject.hh): per-class
 * determinism under a fixed seed, watchdog detection within the
 * recovery budget, admission-control rejection when the restart cost
 * breaks EQ 4 feasibility, restart recovery preserving architectural
 * state, the minimized-repro round trip, and campaign bookkeeping.
 *
 * Registered as the `inject_suite` ctest (default and sanitizer
 * tiers).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/freq_spec.hh"
#include "cpu/ooo_cpu.hh"
#include "core/pet.hh"
#include "core/wcet_table.hh"
#include "isa/assembler.hh"
#include "verify/corpus.hh"
#include "verify/inject.hh"
#include "verify/lockstep.hh"
#include "verify/minimize.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"

namespace visa
{
namespace
{

using namespace verify;

std::vector<FaultClass>
allClasses()
{
    std::vector<FaultClass> out;
    for (int c = 0; c < numFaultClasses; ++c)
        out.push_back(static_cast<FaultClass>(c));
    return out;
}

TEST(Inject, FaultClassNamesRoundTrip)
{
    for (FaultClass cls : allClasses()) {
        FaultClass parsed;
        ASSERT_TRUE(parseFaultClass(faultClassName(cls), parsed))
            << faultClassName(cls);
        EXPECT_EQ(parsed, cls);
    }
    FaultClass dummy;
    EXPECT_FALSE(parseFaultClass("not-a-class", dummy));
}

TEST(Inject, DeterministicUnderFixedSeed)
{
    // A {seed, class} pair names one fault in one program: every field
    // that downstream tooling keys on must reproduce exactly.
    for (FaultClass cls :
         {FaultClass::RegBitFlip, FaultClass::BranchDir,
          FaultClass::WakeupStall}) {
        const InjectRunResult a = runInjectProgram(11, cls);
        const InjectRunResult b = runInjectProgram(11, cls);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.fault.fired, b.fault.fired);
        EXPECT_EQ(a.fault.seq, b.fault.seq);
        EXPECT_EQ(a.fault.pc, b.fault.pc);
        EXPECT_EQ(a.fault.cycle, b.fault.cycle);
        EXPECT_EQ(a.checksum, b.checksum);
        EXPECT_EQ(a.goldenChecksum, b.goldenChecksum);
        EXPECT_EQ(a.detectionLatencyCycles, b.detectionLatencyCycles);
        EXPECT_EQ(a.restarts, b.restarts);
    }
}

TEST(Inject, CampaignTableIsDeterministic)
{
    // The parallel campaign merges batches deterministically: the
    // rendered coverage table is byte-identical across runs (and, by
    // construction, across thread counts).
    const std::vector<FaultClass> classes = allClasses();
    const InjectCampaignResult a = runInjectCampaign(1, 18, classes);
    const InjectCampaignResult b = runInjectCampaign(1, 18, classes);
    EXPECT_EQ(formatCoverageTable(a), formatCoverageTable(b));
    EXPECT_EQ(a.programs, 18u);
    EXPECT_EQ(a.escapes.size(), b.escapes.size());
}

TEST(Inject, EveryClassFiresSomewhere)
{
    // Each fault class must find an eligible victim within a modest
    // seed budget — otherwise the matrix silently stops covering a
    // structure.
    for (FaultClass cls : allClasses()) {
        bool fired = false;
        for (std::uint64_t seed = 1; seed <= 40 && !fired; ++seed)
            fired = runInjectProgram(seed, cls).fault.fired;
        EXPECT_TRUE(fired)
            << "class " << faultClassName(cls)
            << " never fired in 40 programs";
    }
}

/** Peak resident set of this process, KiB. */
long
peakRssKiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

TEST(Inject, CorruptedSubtaskIdKeepsProfilerBounded)
{
    // Replays `visa-fuzz --inject reg-bit-flip --seed
    // 6869616908479784853 --count 1`: the flipped register makes the
    // guest store a huge sub-task id, which the run's block profiler
    // once turned into a multi-GiB phase-table allocation.
    const long before = peakRssKiB();
    const InjectRunResult r =
        runInjectProgram(6869616908479784853ull, FaultClass::RegBitFlip);
    EXPECT_TRUE(r.fault.fired);
    EXPECT_EQ(r.report.find("bad_alloc"), std::string::npos) << r.report;
    EXPECT_LT(peakRssKiB() - before, 256L * 1024) << "peak RSS grew";
}

TEST(Inject, WatchdogDetectsWithinRecoveryBudget)
{
    // For every fault class, some seed must drive the fault down the
    // watchdog path (missed checkpoint or machine-check trap), and
    // every watchdog detection must recover within the
    // restart-budgeted deadline — the schedulability argument, run
    // rather than argued.
    for (FaultClass cls : allClasses()) {
        bool proven = false;
        for (std::uint64_t seed = 1; seed <= 60 && !proven; ++seed) {
            const InjectRunResult r = runInjectProgram(seed, cls);
            if (r.outcome != InjectOutcome::DetectedWatchdog)
                continue;
            EXPECT_TRUE(r.fault.fired) << faultClassName(cls);
            EXPECT_TRUE(r.deadlineMet)
                << faultClassName(cls) << " seed " << seed
                << ": completion " << r.completionSeconds
                << "s vs deadline " << r.deadlineSeconds << "s";
            proven = true;
        }
        EXPECT_TRUE(proven)
            << "class " << faultClassName(cls)
            << ": no watchdog-detected run in 60 seeds";
    }
}

// Toy three-sub-task program for the solver-level admission test
// (mirrors core_test's fixture).
const char *injectCoreProgram = R"(
        .subtask 1
        addi r4, r0, 500
a:      subi r4, r4, 1
        .loopbound 500
        bgtz r4, a
        .subtask 2
        addi r5, r0, 1000
b:      mul r6, r5, r5
        subi r5, r5, 1
        .loopbound 1000
        bgtz r5, b
        .subtask 3
        addi r7, r0, 300
c:      subi r7, r7, 1
        .loopbound 300
        bgtz r7, c
        halt
)";

TEST(Inject, AdmissionControlRejectsInfeasibleRestart)
{
    // The restart bound is EQ 4 plus the snapshot-restore term: with a
    // zero restore cost it must agree with EQ 4, and a restore cost
    // larger than the deadline's headroom must be rejected as
    // infeasible (the runtime then declines speculation — safety
    // before performance).
    const Program prog = assemble(injectCoreProgram);
    WcetAnalyzer analyzer(prog);
    DvsTable dvs;
    WcetTable wcet(analyzer, dvs);

    PetEstimator pets(3, PetPolicy{});
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < 3; ++k)
        seed.push_back(wcet.subtaskCycles(k, 1000) / 4);
    pets.seed(seed);

    const double D = wcet.taskSeconds(700);
    const FreqPair plain = solveVisaSpeculation(wcet, pets, dvs, D, 2e-7);
    ASSERT_TRUE(plain.feasible);

    const FreqPair free_restore =
        solveRestartSpeculation(wcet, pets, dvs, D, 2e-7, 0, 0);
    ASSERT_TRUE(free_restore.feasible);
    EXPECT_EQ(free_restore.fSpec, plain.fSpec);
    EXPECT_EQ(free_restore.fRec, plain.fRec);

    // Restore cost grows the recovery tail: the pair can only move up.
    const FreqPair costly =
        solveRestartSpeculation(wcet, pets, dvs, D, 2e-7, 0, 20000);
    if (costly.feasible)
        EXPECT_GE(costly.fSpec, plain.fSpec);

    // A restore larger than the whole deadline can never fit.
    const FreqPair absurd = solveRestartSpeculation(
        wcet, pets, dvs, D, 2e-7, 0,
        static_cast<Cycles>(D * 1000e6 * 2));
    EXPECT_FALSE(absurd.feasible);
}

TEST(Inject, RuntimeDeclinesSpeculationWhenRestartCostHuge)
{
    // End-to-end admission control: the same injected run that
    // speculates (and fires) under a modest restore cost must fall
    // back to whole-task safe mode — where the complex core, and with
    // it the injector, never runs — when the modeled restore cost
    // breaks the restart bound.
    InjectRunOptions cheap;
    std::uint64_t firing_seed = 0;
    for (std::uint64_t seed = 1; seed <= 20 && !firing_seed; ++seed)
        if (runInjectProgram(seed, FaultClass::RegBitFlip, cheap)
                .fault.fired)
            firing_seed = seed;
    ASSERT_NE(firing_seed, 0u);

    InjectRunOptions huge = cheap;
    huge.restartRestoreCycles = 50'000'000;
    const InjectRunResult r =
        runInjectProgram(firing_seed, FaultClass::RegBitFlip, huge);
    EXPECT_FALSE(r.fault.fired);
    EXPECT_EQ(r.outcome, InjectOutcome::NoTrigger);
    EXPECT_EQ(r.restarts, 0);
    // Safe mode is still correct and still meets the deadline.
    EXPECT_EQ(r.checksum, r.goldenChecksum);
    EXPECT_TRUE(r.deadlineMet);
}

TEST(Inject, RestartRecoveryPreservesChecksum)
{
    // WakeupStall is timing-only: the restart path (snapshot restore +
    // simple-mode re-execution) must reproduce the golden checksum
    // exactly — recovery may cost time, never correctness.
    InjectRunOptions opts;
    opts.forceMiss = true;
    opts.triggerFirst = true;
    bool proven = false;
    for (std::uint64_t seed = 1; seed <= 20 && !proven; ++seed) {
        const InjectRunResult r =
            runInjectProgram(seed, FaultClass::WakeupStall, opts);
        if (!r.fault.fired)
            continue;
        EXPECT_EQ(r.checksum, r.goldenChecksum)
            << "seed " << seed << ": restart recovery corrupted state";
        EXPECT_GE(r.restarts, 1);
        proven = true;
    }
    EXPECT_TRUE(proven);
}

TEST(Inject, MinimizedReproRoundTrip)
{
    // The legacy subword-load bug, now a FaultPort matrix entry: find
    // a diverging program, ddmin it, and round-trip the minimized
    // repro through the corpus format. The loaded repro must still
    // exhibit the divergence.
    const auto diverges = [](const Program &p) {
        auto inj =
            std::make_shared<FaultInjector>(loadExtBugSpec());
        LockstepOptions lo;
        lo.maxInstructions = 200'000;
        lo.prepareComplex = [inj](OooCpu &cpu) {
            cpu.setFaultPort(inj.get());
        };
        return runLockstep(p, lo).diverged;
    };

    GenParams gen;
    gen.profile = GenProfile::Memory;
    gen.statements = 24;
    std::uint64_t failing_seed = 0;
    std::string failing_source;
    for (std::uint64_t seed = 1; seed <= 200 && !failing_seed; ++seed) {
        const GeneratedProgram g = generate(seed, gen);
        if (diverges(g.program)) {
            failing_seed = seed;
            failing_source = g.source;
        }
    }
    ASSERT_NE(failing_seed, 0u)
        << "load-ext bug not caught in 200 memory-profile programs";

    const MinimizeResult m = minimizeSource(failing_source, diverges);
    EXPECT_LE(m.instructions, 16u) << m.source;
    EXPECT_TRUE(diverges(assemble(m.source)));

    ReproCase rc;
    rc.seed = failing_seed;
    rc.profile = "memory";
    rc.note = "minimized load-ext injection repro (inject_test)";
    rc.source = m.source;
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        "visa_inject_repro_test.s";
    ASSERT_TRUE(saveRepro(path.string(), rc));
    const ReproCase back = loadRepro(path.string());
    std::filesystem::remove(path);
    EXPECT_EQ(back.seed, rc.seed);
    EXPECT_EQ(back.source, rc.source);
    EXPECT_TRUE(diverges(assemble(back.source)));
}

TEST(Inject, CorpusEscapesStillEscape)
{
    // Pinned silent-data-corruption escapes from the 10k acceptance
    // campaign (tests/corpus/inject/). Each file's note names the
    // {class, seed} pair; replaying it must still produce the escape.
    // If a detector improvement starts catching one of these, the pin
    // fails — deliberately: the repro then documents a *fixed* escape
    // and should be moved or retired, not silently re-bucketed.
    const std::filesystem::path dir =
        std::filesystem::path(VISA_CORPUS_DIR) / "inject";
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    int replayed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".s")
            continue;
        const ReproCase rc = loadRepro(entry.path().string());
        const std::string tag = "class ";
        const std::size_t at = rc.note.find(tag);
        ASSERT_NE(at, std::string::npos) << entry.path();
        const std::string cls_name = rc.note.substr(
            at + tag.size(),
            rc.note.find_first_of(" (,", at + tag.size()) -
                (at + tag.size()));
        FaultClass cls;
        ASSERT_TRUE(parseFaultClass(cls_name.c_str(), cls))
            << entry.path() << ": '" << cls_name << "'";
        const InjectRunResult r = runInjectProgram(rc.seed, cls);
        EXPECT_EQ(r.outcome, InjectOutcome::SilentCorruption)
            << entry.path() << ": outcome now "
            << injectOutcomeName(r.outcome);
        EXPECT_EQ(r.source, rc.source) << entry.path()
            << ": generator drifted from the pinned program";
        ++replayed;
    }
    EXPECT_GE(replayed, 1) << "no pinned escapes in " << dir;
}

TEST(Inject, CampaignBookkeepingIsConsistent)
{
    // Outcome buckets must partition each class's runs, and silent
    // corruptions must surface in the escape list — an escape that
    // isn't reported is the one failure mode a coverage campaign
    // cannot have.
    const std::vector<FaultClass> classes = allClasses();
    const InjectCampaignResult res = runInjectCampaign(100, 27, classes);
    EXPECT_EQ(res.programs, 27u);
    std::uint64_t total = 0, sdc = 0;
    for (const InjectClassCoverage &c : res.classes) {
        EXPECT_EQ(c.programs,
                  c.noTrigger + c.watchdog + c.lockstep +
                      c.silentBenign + c.silentCorruption)
            << faultClassName(c.cls);
        EXPECT_EQ(c.fired, c.programs - c.noTrigger)
            << faultClassName(c.cls);
        total += c.programs;
        sdc += c.silentCorruption;
    }
    EXPECT_EQ(total, res.programs);
    EXPECT_EQ(sdc, res.escapes.size());
    for (const InjectRunResult &e : res.escapes) {
        EXPECT_EQ(e.outcome, InjectOutcome::SilentCorruption);
        EXPECT_FALSE(e.source.empty());
    }
}

} // anonymous namespace
} // namespace visa
