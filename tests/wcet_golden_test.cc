/**
 * @file
 * Golden WCET sweep: the static analyzer's bounds and bound-side
 * attributions at every operating point of the DVS table, over every
 * workload kernel and 34 generated programs, compared against the
 * checked-in table (tests/wcet_golden.inc). Per row:
 *
 *   - the task WCET at the table's top frequency;
 *   - a 64-bit FNV-1a digest of analyze(f, &dmiss) (task and sub-task
 *     cycles) at all 37 DVS points;
 *   - a digest of attribute(f, &dmiss) (every charge) at the same
 *     points.
 *
 * The generated programs are 8 per progen profile; half of each
 * profile's programs carry the sub-task instrumentation with 1-3
 * sub-tasks (calls off, as the timing oracle generates them), the
 * other half are bare programs with leaf calls allowed. Two more
 * branch-profile programs (one bare, one instrumented) are picked for
 * a 32-path loop.
 *
 * The sweep must reach each of the analyzer's composition regimes:
 * a scope over the path cap (drain fallback), a loop whose 25-64
 * paths are composed pairwise only, a loop of at most 24 paths with
 * two or more iteration paths (depth-2 composition), and a call
 * summary. The test counts the scopes' paths itself, from the entry
 * function's CFG, and asserts each regime is covered.
 *
 * Any change to the analyzer's cycle-level results — intended or
 * not — shows up as an explicit one-line diff of the table.
 * Performance work on the analyzer lands against it unchanged.
 *
 * Regenerating after an intentional analyzer change:
 *
 *   VISA_WCET_GOLDEN_DUMP=1 build/tests/visa_tests \
 *       --gtest_filter='WcetGolden.*' 2>/dev/null \
 *       | grep '^    {' > tests/wcet_golden.inc
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "power/dvs.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

using verify::GenParams;
using verify::GenProfile;

struct GoldenRow
{
    const char *program;
    std::uint64_t cycles;      ///< task WCET at the top frequency
    std::uint64_t analyze;     ///< FNV-1a of every analyze() report
    std::uint64_t attribute;   ///< FNV-1a of every attribute() charge
};

constexpr GoldenRow goldenRows[] = {
#include "tests/wcet_golden.inc"
};

constexpr GenProfile profiles[] = {GenProfile::Alu, GenProfile::Branch,
                                   GenProfile::Memory, GenProfile::Mixed};

/** Generated programs per profile; the odd-indexed are instrumented. */
constexpr int programsPerProfile = 8;

/**
 * Branch-profile seeds beyond the first eight, bare and instrumented,
 * whose programs hold a loop of 32 paths: seeds 1-8 of no profile
 * reach the pairwise-only composition regime.
 */
constexpr std::uint64_t pairwiseSeeds[] = {46, 82};

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

/** One program of the sweep. */
struct SweepProgram
{
    std::string name;
    Program program;
};

std::vector<SweepProgram>
sweepPrograms()
{
    std::vector<SweepProgram> out;
    for (const std::string &name : allWorkloadNames())
        out.push_back({name, makeWorkload(name).program});
    auto add = [&](GenProfile profile, std::uint64_t seed, int subtasks) {
        GenParams gp;
        gp.profile = profile;
        std::string name = std::string("progen-") +
                           verify::profileName(profile) + "-" +
                           std::to_string(seed);
        if (subtasks > 0) {
            gp.instrument = true;
            gp.allowCalls = false;
            gp.subtasks = subtasks;
            name += "-st" + std::to_string(subtasks);
        }
        out.push_back({name, verify::generate(seed, gp).program});
    };
    for (const GenProfile profile : profiles)
        for (int i = 0; i < programsPerProfile; ++i)
            add(profile, static_cast<std::uint64_t>(1 + i),
                i % 2 ? 1 + (i / 2) % 3 : 0);
    add(GenProfile::Branch, pairwiseSeeds[0], 0);
    add(GenProfile::Branch, pairwiseSeeds[1], 2);
    return out;
}

/** Paths through a scope, in total and ending on its back edge. */
struct PathCount
{
    std::uint64_t all = 0;
    std::uint64_t iter = 0;

    PathCount &
    operator+=(const PathCount &o)
    {
        // Saturate far above any cap; only comparisons matter.
        all = std::min<std::uint64_t>(all + o.all, 1ull << 40);
        iter = std::min<std::uint64_t>(iter + o.iter, 1ull << 40);
        return *this;
    }
};

/**
 * Counts the paths the analyzer enumerates through one scope of a CFG
 * (a loop body, or the function body restricted to an address region)
 * without enumerating them: a path ends at the scope's back edge, on
 * leaving the scope or region, or at a block without successors;
 * child loops are single steps continued from each of their exits.
 */
class PathCounter
{
  public:
    PathCounter(const Cfg &cfg, int scope, Addr lo, Addr hi)
        : cfg_(cfg), scope_(scope), lo_(lo), hi_(hi)
    {
    }

    PathCount
    fromBlock(int bid)
    {
        if (auto it = blockMemo_.find(bid); it != blockMemo_.end())
            return it->second;
        const BasicBlock &bb = cfg_.block(bid);
        PathCount c;
        if (bb.succs.empty())
            c.all = 1;
        for (const int t : bb.succs)
            c += viaTarget(t);
        return blockMemo_[bid] = c;
    }

  private:
    PathCount
    viaTarget(int succ)
    {
        if (scope_ >= 0) {
            const Loop &loop = cfg_.loop(scope_);
            if (succ == loop.header)
                return {1, 1};
            if (!loop.blocks.count(succ))
                return {1, 0};
        } else {
            const Addr pc = cfg_.block(succ).startPc;
            if (pc < lo_ || pc >= hi_)
                return {1, 0};
        }
        if (cfg_.loopOf(succ) == scope_)
            return fromBlock(succ);
        int child = cfg_.loopOf(succ);
        while (cfg_.loop(child).parent != scope_)
            child = cfg_.loop(child).parent;
        std::set<int> exits;
        for (const int m : cfg_.loop(child).blocks)
            for (const int t : cfg_.block(m).succs)
                if (!cfg_.loop(child).blocks.count(t))
                    exits.insert(t);
        if (exits.empty())
            return {1, 0};
        PathCount c;
        for (const int t : exits)
            c += viaTarget(t);
        return c;
    }

    const Cfg &cfg_;
    int scope_;
    Addr lo_;
    Addr hi_;
    std::map<int, PathCount> blockMemo_;
};

/** Which composition regimes the sweep reaches. */
struct Coverage
{
    bool pathCapFallback = false;
    bool pairwiseLoop = false;     ///< 25-64 paths, >= 1 iteration path
    bool depthTwoLoop = false;     ///< <= 24 paths, >= 2 iteration paths
    bool callSummary = false;

    void
    add(const Program &prog, const Cfg &cfg)
    {
        const AnalyzerParams params;
        for (const Loop &loop : cfg.loops()) {
            const PathCount c =
                PathCounter(cfg, loop.id, 0, ~0u).fromBlock(loop.header);
            pathCapFallback |= c.all > params.maxPaths;
            pairwiseLoop |= c.all >= 25 && c.all <= params.maxOverlapPaths &&
                            c.iter >= 1;
            depthTwoLoop |= c.all <= 24 && c.iter >= 2;
        }
        // The function-body scopes the task bound is taken over: the
        // whole body, or one region per .subtask marker.
        std::vector<std::pair<Addr, int>> regions;
        std::vector<Addr> bounds;
        if (prog.subtaskStarts.empty()) {
            regions.push_back({0, cfg.entryBlock()});
        } else {
            for (const auto &[pc, id] : prog.subtaskStarts)
                for (const BasicBlock &bb : cfg.blocks())
                    if (bb.startPc == pc)
                        regions.push_back({pc, bb.id});
        }
        for (std::size_t k = 0; k < regions.size(); ++k) {
            const Addr hi =
                k + 1 < regions.size() ? regions[k + 1].first : ~0u;
            const PathCount c = PathCounter(cfg, -1, regions[k].first, hi)
                                    .fromBlock(regions[k].second);
            pathCapFallback |= c.all > params.maxPaths;
        }
        for (const BasicBlock &bb : cfg.blocks())
            callSummary |= bb.callTarget != 0;
    }
};

/** The sweep's row for one program. */
GoldenRow
measure(const char *name, const Program &prog, Coverage &coverage)
{
    const WcetAnalyzer analyzer(prog);
    const DMissProfile dmiss = profileDataMisses(prog);
    coverage.add(prog, analyzer.mainCfg());

    std::ostringstream bounds, charges;
    Cycles top = 0;
    const DvsTable dvs;
    for (const DvsSetting &s : dvs.settings()) {
        const WcetReport rep = analyzer.analyze(s.freq, &dmiss);
        bounds << s.freq << ':' << rep.taskCycles;
        for (const Cycles c : rep.subtaskCycles)
            bounds << ' ' << c;
        bounds << '\n';
        top = rep.taskCycles;

        const WcetAttribution att = analyzer.attribute(s.freq, &dmiss);
        for (std::size_t k = 0; k < att.subtaskCharges.size(); ++k)
            for (const WcetCharge &c : att.subtaskCharges[k])
                charges << s.freq << ' ' << k << ' '
                        << wcetChargeKindName(c.kind) << ' ' << c.startPc
                        << ' ' << c.endPc << ' ' << c.count << ' '
                        << c.cycles << '\n';
    }
    return {name, top, digest(bounds.str()), digest(charges.str())};
}

TEST(WcetGolden, Sweep)
{
    const bool dump = std::getenv("VISA_WCET_GOLDEN_DUMP") != nullptr;
    const std::vector<SweepProgram> programs = sweepPrograms();
    Coverage coverage;
    for (const SweepProgram &p : programs) {
        const GoldenRow actual =
            measure(p.name.c_str(), p.program, coverage);
        if (dump) {
            std::printf("    {\"%s\", %lluull, 0x%016llxull, "
                        "0x%016llxull},\n",
                        actual.program,
                        static_cast<unsigned long long>(actual.cycles),
                        static_cast<unsigned long long>(actual.analyze),
                        static_cast<unsigned long long>(actual.attribute));
            continue;
        }
        const GoldenRow *golden = nullptr;
        for (const GoldenRow &row : goldenRows)
            if (p.name == row.program) {
                golden = &row;
                break;
            }
        ASSERT_NE(golden, nullptr)
            << "no golden row for " << p.name
            << " — regenerate tests/wcet_golden.inc (see file comment)";
        const char *hint = " — if intentional, regenerate "
                           "tests/wcet_golden.inc (see file comment)";
        EXPECT_EQ(actual.cycles, golden->cycles)
            << p.name << ": top-frequency WCET changed" << hint;
        EXPECT_EQ(actual.analyze, golden->analyze)
            << p.name << ": analyze() digest changed" << hint;
        EXPECT_EQ(actual.attribute, golden->attribute)
            << p.name << ": attribute() digest changed" << hint;
    }
    EXPECT_EQ(std::size(goldenRows), programs.size())
        << "tests/wcet_golden.inc is stale — regenerate it (see file "
           "comment)";
    EXPECT_TRUE(coverage.pathCapFallback)
        << "no scope of the sweep exceeds the path cap";
    EXPECT_TRUE(coverage.pairwiseLoop)
        << "no loop of the sweep has 25-64 paths";
    EXPECT_TRUE(coverage.depthTwoLoop)
        << "no loop of the sweep has <= 24 paths and >= 2 iteration "
           "paths";
    EXPECT_TRUE(coverage.callSummary)
        << "no program of the sweep makes a call";
}

} // anonymous namespace
} // namespace visa
