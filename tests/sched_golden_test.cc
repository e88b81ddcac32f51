/**
 * @file
 * Golden schedule matrix: every scheduler engine and the free-running
 * chip are pinned by digests of everything they publish. Each
 * scheduler case hashes three artifacts of one run — the buildStats
 * dump (stats JSON), the trace (JSONL) and the jobs() list — and
 * compares them against the checked-in table (tests/sched_golden.inc).
 * The free chip runs hash the chip stats, the trace, and each core's
 * cycle/retired counts.
 *
 * The matrix: the named task sets {duo, trio, mixed, clab6} plus three
 * constructed sets for the paths the stock sets never reach (a phased
 * trio that must preempt, the same trio with forced watchdog expiries
 * under the MaxRequest governor, and a pair on which EDF and RM
 * dispatch differently), under {EDF, RM} on one core, on 2 and 4
 * cores with partitioned placement, and on 2 and 4 cores with global
 * placement (EDF only); plus free chip runs of mm on 1, 2 and 4
 * cores. Each engine family must reach preemption and recovery on
 * some case, and EDF and RM must differ somewhere. Every case runs at
 * VISA_THREADS=1 and =4 against the same row, so the table also pins
 * thread-count invariance. The engines must be byte-identical to the
 * table: a refactor of the scheduler or the chip's quantum loop lands
 * against it unchanged.
 *
 * The trace masks out the per-instruction "cpu" category (millions of
 * fetch/retire events per run); every other category — sched, task,
 * checkpoint, mode, dvs, mem, fault — is recorded, and the ring is
 * sized so nothing is dropped (asserted).
 *
 * Regenerating after an intentional schedule or timing change:
 *
 *   VISA_SCHED_GOLDEN_DUMP=1 build/tests/visa_tests \
 *       --gtest_filter='SchedGolden.*' 2>/dev/null \
 *       | grep '^    {' > tests/sched_golden.inc
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "chip/chip.hh"
#include "core/scheduler.hh"
#include "sim/builder.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workloads/tasksets.hh"

namespace visa
{
namespace
{

using bench::makeTaskSetDefs;

struct GoldenRow
{
    const char *set;
    const char *policy;       ///< "edf" / "rm" ("-" for free chip runs)
    const char *placement;    ///< "uni" / "partitioned" / "global" / "chip"
    int cores;
    std::uint64_t stats;
    std::uint64_t trace;
    std::uint64_t jobs;
};

constexpr GoldenRow goldenRows[] = {
#include "tests/sched_golden.inc"
};

constexpr int jobsPerTask = 6;
constexpr double setUtil = 0.7;
constexpr std::size_t traceCapacity = 1 << 18;

/** Pin VISA_THREADS for one scope; restores the prior value. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(const char *value)
    {
        if (const char *prev = std::getenv("VISA_THREADS")) {
            had_ = true;
            saved_ = prev;
        }
        setenv("VISA_THREADS", value, 1);
    }
    ~ScopedThreads()
    {
        if (had_)
            setenv("VISA_THREADS", saved_.c_str(), 1);
        else
            unsetenv("VISA_THREADS");
    }
    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    bool had_ = false;
    std::string saved_;
};

/** 64-bit FNV-1a. */
std::uint64_t
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every category except the per-instruction "cpu" one. */
std::uint32_t
traceMask()
{
    return Tracer::allKinds() & ~Tracer::maskFor("cpu");
}

/**
 * The phased trio of scheduler_test.cc: all period scales 1 (so the
 * target is the real utilization) and mm phased to straddle cnt's
 * next release, so EDF and RM must preempt.
 */
std::vector<SchedTaskDef>
phasedTrioDefs()
{
    const std::vector<TaskSetMemberSpec> members = {
        {"cnt", 1.0}, {"mm", 1.0}, {"srt", 1.0}};
    std::vector<SchedTaskDef> defs = makeTaskSetDefs(members, 0.8);
    defs[1].phaseSeconds = 0.9 * defs[0].periodSeconds;
    return defs;
}

/**
 * A pair on which EDF and RM disagree: mm's period is just longer than
 * cnt's (RM ranks cnt higher), and mm's first job is phased to start
 * just before cnt's second release with the earlier absolute deadline
 * (0.97T + 1.02T < 2T): EDF keeps mm running, RM preempts it.
 */
std::vector<SchedTaskDef>
edfRmPairDefs()
{
    const std::vector<TaskSetMemberSpec> members = {{"cnt", 1.0},
                                                    {"mm", 1.0}};
    std::vector<SchedTaskDef> defs = makeTaskSetDefs(members, 0.8);
    const double stretch = 1.02;
    const double period = (defs[0].runtime.deadlineSeconds +
                           defs[1].runtime.deadlineSeconds / stretch) /
                          0.7;
    defs[0].periodSeconds = period;
    defs[1].periodSeconds = stretch * period;
    defs[1].phaseSeconds = 0.97 * period;
    return defs;
}

struct SetSpec
{
    const char *name;
    GovernorPolicy governor;
    /** Partitioned placement pins tasks 0 and 1 to core 0 and the rest
     *  to core 1, so the constructed overlaps share a core. */
    bool pinned;
};

const std::vector<SetSpec> &
setSpecs()
{
    static const std::vector<SetSpec> specs = {
        {"duo", GovernorPolicy::PerTask, false},
        {"trio", GovernorPolicy::PerTask, false},
        {"mixed", GovernorPolicy::PerTask, false},
        {"clab6", GovernorPolicy::PerTask, false},
        {"phased", GovernorPolicy::PerTask, true},
        {"phased-fault", GovernorPolicy::MaxRequest, true},
        {"edf-rm", GovernorPolicy::PerTask, true},
    };
    return specs;
}

std::vector<SchedTaskDef>
setDefs(const std::string &name)
{
    if (name == "phased")
        return phasedTrioDefs();
    if (name == "phased-fault") {
        // Forced expiries on two members: recoveries under preemption
        // and a governor that resolves over the candidate set.
        std::vector<SchedTaskDef> defs = phasedTrioDefs();
        defs[0].forceMissEvery = 2;
        defs[2].forceMissEvery = 3;
        return defs;
    }
    if (name == "edf-rm")
        return edfRmPairDefs();
    return makeTaskSetDefs(parseTaskSet(name), setUtil);
}

/** What one scheduler run publishes, digested. */
struct SchedDigest
{
    GoldenRow row;
    int preemptions = 0;
    int checkpointMisses = 0;
};

SchedDigest
runSchedule(const SetSpec &spec, SchedPolicy policy,
            PlacementPolicy placement, int cores)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.governor = spec.governor;
    cfg.cores = cores;
    cfg.placement = placement;
    const std::vector<SchedTaskDef> defs = setDefs(spec.name);
    if (spec.pinned && cores > 1 &&
        placement == PlacementPolicy::Partitioned)
        for (std::size_t i = 0; i < defs.size(); ++i)
            cfg.affinity.push_back(i < 2 ? 0 : 1);
    MultiTaskScheduler sched(cfg);
    for (const SchedTaskDef &d : defs)
        sched.addTask(d);
    EXPECT_EQ(sched.admissionError(), "") << spec.name;

    Tracer tracer(traceCapacity);
    tracer.setKindMask(traceMask());
    ScheduleOutcome out;
    {
        ScopedTracer install(tracer);
        out = sched.run(jobsPerTask);
    }
    EXPECT_EQ(tracer.dropped(), 0u) << spec.name;
    EXPECT_EQ(out.deadlineMisses, 0) << spec.name;

    StatSet set;
    sched.buildStats(set);
    std::ostringstream stats, trace, jobs;
    set.dumpJson(stats);
    tracer.writeJsonl(trace);
    jobs.precision(17);
    for (const JobRecord &j : sched.jobs())
        jobs << j.task << ' ' << j.job << ' ' << j.releaseSeconds << ' '
             << j.completionSeconds << ' ' << j.deadlineSeconds << ' '
             << j.deadlineMet << ' ' << j.missedCheckpoint << ' '
             << j.preemptions << ' ' << j.busySeconds << '\n';

    SchedDigest d;
    d.row = {spec.name,
             schedPolicyName(policy),
             cores == 1 ? "uni" : placementName(placement),
             cores,
             digest(stats.str()),
             digest(trace.str()),
             digest(jobs.str())};
    d.preemptions = out.preemptions;
    d.checkpointMisses = out.checkpointMisses;
    return d;
}

GoldenRow
runChip(int cores)
{
    Tracer tracer(traceCapacity);
    tracer.setKindMask(traceMask());
    auto c = SimBuilder()
                 .workload("mm")
                 .cpu(CpuKind::Complex)
                 .cores(cores)
                 .buildChip();
    chip::Chip::RunAllResult r;
    {
        ScopedTracer install(tracer);
        r = c->runAll(20'000'000'000ULL);
    }
    EXPECT_TRUE(r.allHalted);
    EXPECT_EQ(tracer.dropped(), 0u);

    StatSet set;
    c->buildStats(set);
    std::ostringstream stats, trace, counts;
    set.dumpJson(stats);
    tracer.writeJsonl(trace);
    counts << r.allHalted << ' ' << r.retired << '\n';
    for (int i = 0; i < c->numCores(); ++i)
        counts << c->core(i).ooo().cycles() << ' '
               << c->core(i).ooo().retired() << '\n';
    return {"mm",         "-",
            "chip",       cores,
            digest(stats.str()),
            digest(trace.str()),
            digest(counts.str())};
}

bool
dumping()
{
    return std::getenv("VISA_SCHED_GOLDEN_DUMP") != nullptr;
}

/** Compare @p actual against its table row (or print it in dump mode). */
void
checkRow(const GoldenRow &actual, const char *threads)
{
    const std::string label = std::string(actual.set) + " " +
                              actual.policy + " " + actual.placement +
                              " cores=" + std::to_string(actual.cores) +
                              " VISA_THREADS=" + threads;
    if (dumping()) {
        // The threads=1 pass writes the row; threads=4 must agree.
        if (std::string(threads) == "1")
            std::printf("    {\"%s\", \"%s\", \"%s\", %d, 0x%016llxull, "
                        "0x%016llxull, 0x%016llxull},\n",
                        actual.set, actual.policy, actual.placement,
                        actual.cores,
                        static_cast<unsigned long long>(actual.stats),
                        static_cast<unsigned long long>(actual.trace),
                        static_cast<unsigned long long>(actual.jobs));
        return;
    }
    const GoldenRow *golden = nullptr;
    for (const GoldenRow &row : goldenRows)
        if (std::string(row.set) == actual.set &&
            std::string(row.policy) == actual.policy &&
            std::string(row.placement) == actual.placement &&
            row.cores == actual.cores) {
            golden = &row;
            break;
        }
    ASSERT_NE(golden, nullptr)
        << "no golden row for " << label
        << " — regenerate tests/sched_golden.inc (see file comment)";
    EXPECT_EQ(actual.stats, golden->stats)
        << label << ": stats JSON changed";
    EXPECT_EQ(actual.trace, golden->trace)
        << label << ": trace JSONL changed";
    EXPECT_EQ(actual.jobs, golden->jobs) << label << ": job list changed";
}

/**
 * Run every set under @p placement on @p coreCounts (with both
 * policies unless @p edfOnly) at both thread counts; @return the
 * threads=1 digests for the coverage checks.
 */
std::vector<SchedDigest>
runFamily(PlacementPolicy placement, std::vector<int> coreCounts,
          bool edfOnly)
{
    std::vector<SchedDigest> out;
    for (const char *threads : {"1", "4"}) {
        ScopedThreads pin(threads);
        for (const SetSpec &spec : setSpecs())
            for (const SchedPolicy policy :
                 {SchedPolicy::Edf, SchedPolicy::RateMonotonic}) {
                if (edfOnly && policy != SchedPolicy::Edf)
                    continue;
                for (const int cores : coreCounts) {
                    const SchedDigest d =
                        runSchedule(spec, policy, placement, cores);
                    checkRow(d.row, threads);
                    if (std::string(threads) == "1")
                        out.push_back(d);
                }
            }
    }
    return out;
}

/** The family reaches preemption and recovery on some case. */
void
expectCoverage(const std::vector<SchedDigest> &family, const char *name)
{
    bool preempts = false;
    bool recovers = false;
    for (const SchedDigest &d : family) {
        preempts = preempts || d.preemptions > 0;
        recovers = recovers || d.checkpointMisses > 0;
    }
    EXPECT_TRUE(preempts) << name << ": no case preempts";
    EXPECT_TRUE(recovers) << name << ": no case recovers";
}

/** EDF and RM must be told apart by at least one case. */
void
expectPoliciesDiffer(const std::vector<SchedDigest> &family,
                     const char *name)
{
    bool differ = false;
    for (const SchedDigest &e : family)
        for (const SchedDigest &r : family)
            if (std::string(e.row.policy) == "edf" &&
                std::string(r.row.policy) == "rm" &&
                std::string(e.row.set) == r.row.set &&
                e.row.cores == r.row.cores &&
                (e.row.stats != r.row.stats || e.row.trace != r.row.trace ||
                 e.row.jobs != r.row.jobs))
                differ = true;
    EXPECT_TRUE(differ) << name << ": EDF and RM digests never differ";
}

TEST(SchedGolden, SingleCore)
{
    const auto family =
        runFamily(PlacementPolicy::Partitioned, {1}, false);
    expectCoverage(family, "single-core");
    expectPoliciesDiffer(family, "single-core");
}

TEST(SchedGolden, Partitioned)
{
    const auto family =
        runFamily(PlacementPolicy::Partitioned, {2, 4}, false);
    expectCoverage(family, "partitioned");
    expectPoliciesDiffer(family, "partitioned");
}

TEST(SchedGolden, Global)
{
    const auto family = runFamily(PlacementPolicy::Global, {2, 4}, true);
    expectCoverage(family, "global");
}

TEST(SchedGolden, ChipFreeRun)
{
    for (const char *threads : {"1", "4"}) {
        ScopedThreads pin(threads);
        for (const int cores : {1, 2, 4})
            checkRow(runChip(cores), threads);
    }
}

/** The table covers exactly the matrix, nothing stale. */
TEST(SchedGolden, TableIsComplete)
{
    // Per set: EDF + RM on 1, 2, 4 partitioned cores, EDF on 2, 4
    // global cores; plus the three free chip runs.
    const std::size_t expected = setSpecs().size() * (2 * 3 + 2) + 3;
    EXPECT_EQ(std::size(goldenRows), expected)
        << "tests/sched_golden.inc is stale — regenerate it (see file "
           "comment)";
}

} // anonymous namespace
} // namespace visa
