#include "wcet/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "cpu/simple_cpu.hh"
#include "cpu/visa_timing.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

/** One element of an execution path through a scope. */
struct Step
{
    enum Kind { Block, LoopSum, CallSum };
    Kind kind = Block;
    int bb = -1;             ///< Block: basic block id
    bool redirect = false;   ///< Block: chosen edge pays the 4-cycle
                             ///< static-misprediction penalty
    int loopId = -1;         ///< LoopSum: summarized inner loop
    Addr callee = 0;         ///< CallSum: callee entry address
};

using Path = std::vector<Step>;

/** Enumerated paths through one scope (function body or loop body). */
struct ScopePaths
{
    std::vector<Path> paths;
    std::vector<std::size_t> iterIdx;    ///< loop: backedge-terminated
    bool fallback = false;               ///< path cap hit: drain compose
};

/** Everything the analyzer derives for one function. */
struct FuncAnalysis
{
    std::unique_ptr<Cfg> cfg;
    std::unique_ptr<ICacheAnalysis> cache;
    ScopePaths body;
    std::map<int, ScopePaths> loopPaths;
    // Entry function only: per-sub-task regions.
    std::vector<ScopePaths> subtaskPaths;
    std::vector<std::set<Addr>> subtaskFmBlocks;
};

/** Path enumerator over one scope of one function. */
class Enumerator
{
  public:
    Enumerator(const Cfg &cfg, int scope_loop, std::size_t cap,
               Addr region_lo, Addr region_hi)
        : cfg_(cfg), scope_(scope_loop), cap_(cap),
          regionLo_(region_lo), regionHi_(region_hi)
    {
    }

    ScopePaths
    run(int entry_block)
    {
        Path cur;
        dfs(entry_block, cur);
        if (overflow_) {
            warn("wcet: path cap (%zu) exceeded; using drain "
                 "composition for this scope", cap_);
            out_.fallback = true;
        }
        return std::move(out_);
    }

  private:
    bool
    inRegion(const BasicBlock &bb) const
    {
        return bb.startPc >= regionLo_ && bb.startPc < regionHi_;
    }

    /** The child loop of this scope containing @p bid, or -1. */
    int
    childLoopOf(int bid) const
    {
        int l = cfg_.loopOf(bid);
        while (l >= 0 && cfg_.loop(l).parent != scope_)
            l = cfg_.loop(l).parent;
        return l;
    }

    void
    emit(Path cur, bool is_iter)
    {
        if (out_.paths.size() >= cap_) {
            overflow_ = true;
            return;
        }
        if (is_iter)
            out_.iterIdx.push_back(out_.paths.size());
        out_.paths.push_back(std::move(cur));
    }

    void
    visitTarget(int succ, Path cur)
    {
        if (overflow_)
            return;
        if (scope_ >= 0) {
            const Loop &loop = cfg_.loop(scope_);
            if (succ == loop.header) {
                emit(std::move(cur), true);    // back edge: one iteration
                return;
            }
            if (!loop.blocks.count(succ)) {
                emit(std::move(cur), false);   // loop exit
                return;
            }
        } else if (!inRegion(cfg_.block(succ))) {
            emit(std::move(cur), false);       // leaves the region
            return;
        }
        if (cfg_.loopOf(succ) == scope_) {
            dfs(succ, std::move(cur));
            return;
        }
        // Entering a child loop; natural loops are entered at the
        // header.
        int child = childLoopOf(succ);
        if (child < 0)
            panic("wcet: block %d in no child loop of scope %d", succ,
                  scope_);
        const Loop &cl = cfg_.loop(child);
        if (succ != cl.header)
            fatal("wcet: loop at block %d entered other than at its "
                  "header", succ);
        if (scope_ < 0) {
            // Region discipline: a summarized loop must lie entirely
            // inside the current sub-task region.
            for (int m : cl.blocks) {
                if (!inRegion(cfg_.block(m)))
                    fatal("wcet: loop with header 0x%x straddles a "
                          ".subtask boundary",
                          cfg_.block(cl.header).startPc);
            }
        }
        Step s;
        s.kind = Step::LoopSum;
        s.loopId = child;
        cur.push_back(s);
        // Continue from every exit of the child loop.
        std::set<int> exits;
        for (int m : cl.blocks)
            for (int t : cfg_.block(m).succs)
                if (!cl.blocks.count(t))
                    exits.insert(t);
        if (exits.empty()) {
            emit(std::move(cur), false);    // loop never exits locally
            return;
        }
        for (int t : exits)
            visitTarget(t, cur);
    }

    void
    dfs(int bid, Path cur)
    {
        if (overflow_)
            return;
        const BasicBlock &bb = cfg_.block(bid);
        Step s;
        s.kind = Step::Block;
        s.bb = bid;
        cur.push_back(s);
        std::size_t block_step = cur.size() - 1;
        if (bb.callTarget) {
            Step c;
            c.kind = Step::CallSum;
            c.callee = bb.callTarget;
            cur.push_back(c);
        }
        if (bb.succs.empty()) {
            emit(std::move(cur), false);    // halt or return
            return;
        }
        const Instruction &last = cfg_.program().at(bb.endPc - 4);
        if (last.isCondBranch()) {
            // succ[0] = taken, succ[1] = fall-through; the static
            // heuristic predicts backward-taken / forward-not-taken.
            std::size_t pred_idx = last.isBackward(bb.endPc - 4) ? 0 : 1;
            for (std::size_t i = 0; i < bb.succs.size(); ++i) {
                Path branch = cur;
                branch[block_step].redirect = (i != pred_idx);
                visitTarget(bb.succs[i], std::move(branch));
            }
        } else {
            for (int t : bb.succs)
                visitTarget(t, cur);
        }
    }

    const Cfg &cfg_;
    int scope_;
    std::size_t cap_;
    Addr regionLo_;
    Addr regionHi_;
    ScopePaths out_;
    bool overflow_ = false;
};

} // anonymous namespace

/** Analyzer internals. */
struct WcetAnalyzer::Impl
{
    const Program &prog;
    AnalyzerParams params;
    std::map<Addr, FuncAnalysis> funcs;
    std::vector<Addr> bottomUp;    ///< callees before callers
    Addr mainEntry;
    int numSubtasks = 1;

    Impl(const Program &p, AnalyzerParams prm)
        : prog(p), params(std::move(prm)), mainEntry(p.entry)
    {
        discoverFunctions();
        buildCacheAnalyses();
        enumerateAllScopes();
        partitionSubtasks();
    }

    void
    discoverFunctions()
    {
        // DFS over the call graph with cycle (recursion) detection.
        std::map<Addr, int> state;    // 0 new, 1 active, 2 done
        std::function<void(Addr)> visit = [&](Addr entry) {
            if (state[entry] == 2)
                return;
            if (state[entry] == 1)
                fatal("wcet: recursion detected at 0x%x (unsupported)",
                      entry);
            state[entry] = 1;
            auto &fa = funcs[entry];
            fa.cfg = std::make_unique<Cfg>(prog, entry);
            for (Addr callee : fa.cfg->callTargets())
                visit(callee);
            state[entry] = 2;
            bottomUp.push_back(entry);
        };
        visit(mainEntry);
    }

    void
    buildCacheAnalyses()
    {
        std::map<Addr, std::set<Addr>> footprints;
        for (Addr entry : bottomUp) {
            auto &fa = funcs.at(entry);
            fa.cache = std::make_unique<ICacheAnalysis>(
                *fa.cfg, params.icache, footprints);
            footprints[entry] = fa.cache->footprint();
        }
    }

    void
    enumerateAllScopes()
    {
        for (Addr entry : bottomUp) {
            auto &fa = funcs.at(entry);
            const Cfg &cfg = *fa.cfg;
            for (const auto &loop : cfg.loops()) {
                Enumerator e(cfg, loop.id, params.maxPaths, 0, ~0u);
                fa.loopPaths[loop.id] = e.run(loop.header);
            }
            Enumerator e(cfg, -1, params.maxPaths, 0, ~0u);
            fa.body = e.run(cfg.entryBlock());
        }
    }

    void
    partitionSubtasks()
    {
        auto &fa = funcs.at(mainEntry);
        const Cfg &cfg = *fa.cfg;
        std::vector<std::pair<Addr, int>> markers(
            prog.subtaskStarts.begin(), prog.subtaskStarts.end());
        if (markers.empty()) {
            numSubtasks = 1;
            fa.subtaskPaths.push_back(fa.body);
            fa.subtaskFmBlocks.push_back(
                fa.cache->fmBlocks(-1));
            return;
        }
        // Validate: ids 1..s in address order, first marker at entry.
        numSubtasks = static_cast<int>(markers.size());
        for (int i = 0; i < numSubtasks; ++i) {
            if (markers[static_cast<std::size_t>(i)].second != i + 1)
                fatal("wcet: .subtask ids must be 1..%d in address "
                      "order (got %d)", numSubtasks,
                      markers[static_cast<std::size_t>(i)].second);
        }
        if (markers.front().first != prog.entry)
            fatal("wcet: the first .subtask marker must sit at the "
                  "task entry");
        for (int k = 0; k < numSubtasks; ++k) {
            Addr lo = markers[static_cast<std::size_t>(k)].first;
            Addr hi = k + 1 < numSubtasks
                ? markers[static_cast<std::size_t>(k + 1)].first
                : ~0u;
            // Region entry block must start exactly at the marker.
            int entry_block = -1;
            for (const auto &bb : cfg.blocks())
                if (bb.startPc == lo)
                    entry_block = bb.id;
            if (entry_block < 0)
                fatal("wcet: .subtask %d marker 0x%x is not at a basic "
                      "block boundary", k + 1, lo);
            Enumerator e(cfg, -1, params.maxPaths, lo, hi);
            fa.subtaskPaths.push_back(e.run(entry_block));

            // First-miss blocks (task-level persistence) charged to
            // this sub-task: any it can touch.
            std::set<Addr> fm;
            auto collect = [&](const BasicBlock &bb) {
                for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
                    const auto &cat = fa.cache->at(pc);
                    if (cat.cat == CacheCat::FirstMiss &&
                        cat.fmScope == -1) {
                        fm.insert(pc & ~(params.icache.blockBytes - 1));
                    }
                }
            };
            for (const auto &bb : cfg.blocks())
                if (bb.startPc >= lo && bb.startPc < hi)
                    collect(bb);
            fa.subtaskFmBlocks.push_back(std::move(fm));
        }
    }

    // ---- frequency-dependent evaluation ----

    struct EvalCtx
    {
        MHz f = 1000;
        Cycles penalty = 100;
        std::map<std::pair<Addr, int>, Cycles> loopMemo;
        std::map<Addr, Cycles> funcMemo;
    };

    Cycles
    penaltyAt(MHz f) const
    {
        auto num = static_cast<Cycles>(params.memStallNs * f);
        return (num + 999) / 1000;
    }

    /**
     * Time one path on the VISA pipeline model. With @p out, also
     * record one WcetCharge per step: blocks with their pipeline-aware
     * cycle deltas, summarized loops and calls with their bounds. The
     * recorded cycles sum to the returned time.
     */
    Cycles
    chargePath(const FuncAnalysis &fa, const Path &path, EvalCtx &ctx,
               std::vector<WcetCharge> *out = nullptr) const
    {
        Cycles total = 0;
        VisaTimer timer;
        for (const Step &step : path) {
            if (step.kind != Step::Block) {
                // A summarized scope runs on a drained pipeline.
                total += timer.totalCycles();
                timer.reset();
                WcetCharge c;
                if (step.kind == Step::LoopSum) {
                    const Loop &loop = fa.cfg->loop(step.loopId);
                    c.kind = WcetCharge::Kind::Loop;
                    c.startPc = fa.cfg->block(loop.header).startPc;
                    c.count = static_cast<std::uint64_t>(loop.bound);
                    c.cycles = loopWcet(fa, step.loopId, ctx);
                } else {
                    c.kind = WcetCharge::Kind::Call;
                    c.startPc = step.callee;
                    c.cycles = funcWcet(step.callee, ctx);
                }
                total += c.cycles;
                if (out)
                    out->push_back(c);
                continue;
            }
            const Cycles before = total + timer.totalCycles();
            const BasicBlock &bb = fa.cfg->block(step.bb);
            for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
                const Cycles imiss =
                    fa.cache->at(pc).cat == CacheCat::AlwaysMiss
                        ? ctx.penalty
                        : 0;
                // D-misses are padded per sub-task, not per access.
                timer.step(fa.cfg->program().at(pc), imiss, 0,
                           step.redirect);
            }
            if (out) {
                WcetCharge c;
                c.startPc = bb.startPc;
                c.endPc = bb.endPc;
                c.cycles = total + timer.totalCycles() - before;
                out->push_back(c);
            }
        }
        return total + timer.totalCycles();
    }

    Cycles
    evalConcat(const FuncAnalysis &fa, const Path &a, const Path &b,
               EvalCtx &ctx) const
    {
        Path joined = a;
        joined.insert(joined.end(), b.begin(), b.end());
        return chargePath(fa, joined, ctx);
    }

    /** Max path time over a scope's enumerated paths. */
    Cycles
    maxPath(const FuncAnalysis &fa, const ScopePaths &sp,
            EvalCtx &ctx) const
    {
        Cycles best = 0;
        for (const auto &p : sp.paths)
            best = std::max(best, chargePath(fa, p, ctx));
        return best;
    }

    Cycles
    loopWcet(const FuncAnalysis &fa, int loop_id, EvalCtx &ctx) const
    {
        Addr fentry = fa.cfg->entry();
        auto key = std::make_pair(fentry, loop_id);
        auto it = ctx.loopMemo.find(key);
        if (it != ctx.loopMemo.end())
            return it->second;

        const ScopePaths &sp = fa.loopPaths.at(loop_id);
        const Loop &loop = fa.cfg->loop(loop_id);
        if (sp.paths.empty())
            panic("wcet: loop %d has no paths", loop_id);

        Cycles t_first = maxPath(fa, sp, ctx);
        Cycles t_iter = t_first;    // drain composition fallback
        if (!sp.fallback && sp.paths.size() <= params.maxOverlapPaths &&
            !sp.iterIdx.empty()) {
            // Healy-style overlap: steady-state per-iteration
            // increment measured over concatenations of worst paths.
            t_iter = 0;
            std::vector<Cycles> alone(sp.paths.size());
            for (std::size_t i = 0; i < sp.paths.size(); ++i)
                alone[i] = chargePath(fa, sp.paths[i], ctx);
            for (std::size_t qi : sp.iterIdx) {
                for (std::size_t pi = 0; pi < sp.paths.size(); ++pi) {
                    Cycles qp = evalConcat(fa, sp.paths[qi],
                                           sp.paths[pi], ctx);
                    t_iter = std::max(t_iter, qp - alone[qi]);
                }
            }
            if (sp.paths.size() <= 24) {
                // Depth-2 prefixes sharpen the steady-state estimate.
                for (std::size_t q1 : sp.iterIdx) {
                    for (std::size_t q2 : sp.iterIdx) {
                        Path pre = sp.paths[q1];
                        pre.insert(pre.end(), sp.paths[q2].begin(),
                                   sp.paths[q2].end());
                        Cycles pre_t = chargePath(fa, pre, ctx);
                        for (const auto &p : sp.paths) {
                            Cycles t = evalConcat(fa, pre, p, ctx);
                            t_iter = std::max(t_iter, t - pre_t);
                        }
                    }
                }
            }
        }

        Cycles fm = static_cast<Cycles>(
                        fa.cache->fmBlocks(loop_id).size()) *
                    ctx.penalty;
        Cycles wcet = t_first +
                      (loop.bound - 1) * (t_iter + params.iterSlack) +
                      fm;
        ctx.loopMemo[key] = wcet;
        return wcet;
    }

    Cycles
    funcWcet(Addr entry, EvalCtx &ctx) const
    {
        auto it = ctx.funcMemo.find(entry);
        if (it != ctx.funcMemo.end())
            return it->second;
        const FuncAnalysis &fa = funcs.at(entry);
        Cycles w = maxPath(fa, fa.body, ctx);
        w += static_cast<Cycles>(fa.cache->fmBlocks(-1).size()) *
             ctx.penalty;
        ctx.funcMemo[entry] = w;
        return w;
    }

    WcetAttribution
    attribute(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx;
        ctx.f = f;
        ctx.penalty = penaltyAt(f);

        const FuncAnalysis &fa = funcs.at(mainEntry);
        WcetAttribution out;
        out.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            const ScopePaths &sp =
                fa.subtaskPaths[static_cast<std::size_t>(k)];
            // The argmax path re-derived with the same evaluator; any
            // tie resolves to the first best path, whose time *is* the
            // maxPath() bound either way.
            Cycles best = 0;
            std::size_t bi = 0;
            for (std::size_t i = 0; i < sp.paths.size(); ++i) {
                const Cycles t = chargePath(fa, sp.paths[i], ctx);
                if (t > best) {
                    best = t;
                    bi = i;
                }
            }
            std::vector<WcetCharge> charges;
            if (!sp.paths.empty())
                chargePath(fa, sp.paths[bi], ctx, &charges);
            const auto &fm =
                fa.subtaskFmBlocks[static_cast<std::size_t>(k)];
            if (!fm.empty()) {
                WcetCharge c;
                c.kind = WcetCharge::Kind::FirstMiss;
                c.count = fm.size();
                c.cycles = static_cast<Cycles>(fm.size()) * ctx.penalty;
                charges.push_back(c);
            }
            if (dmiss) {
                const auto &mpt = dmiss->missesPerSubtask;
                const std::uint64_t misses =
                    k < static_cast<int>(mpt.size())
                        ? mpt[static_cast<std::size_t>(k)]
                        : 0;
                const auto padded = static_cast<std::uint64_t>(
                    std::ceil(static_cast<double>(misses) *
                              dmiss->safetyFactor));
                if (padded > 0) {
                    WcetCharge c;
                    c.kind = WcetCharge::Kind::DMissPad;
                    c.count = padded;
                    c.cycles = static_cast<Cycles>(padded) * ctx.penalty;
                    charges.push_back(c);
                }
            }
            out.subtaskCharges.push_back(std::move(charges));
        }
        return out;
    }

    WcetReport
    analyze(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx;
        ctx.f = f;
        ctx.penalty = penaltyAt(f);

        const FuncAnalysis &fa = funcs.at(mainEntry);
        WcetReport report;
        report.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            Cycles w = maxPath(
                fa, fa.subtaskPaths[static_cast<std::size_t>(k)], ctx);
            w += static_cast<Cycles>(
                     fa.subtaskFmBlocks[static_cast<std::size_t>(k)]
                         .size()) *
                 ctx.penalty;
            if (dmiss) {
                const auto &mpt = dmiss->missesPerSubtask;
                std::uint64_t misses =
                    k < static_cast<int>(mpt.size())
                        ? mpt[static_cast<std::size_t>(k)]
                        : 0;
                w += static_cast<Cycles>(
                    std::ceil(static_cast<double>(misses) *
                              dmiss->safetyFactor)) *
                    ctx.penalty;
            }
            report.subtaskCycles.push_back(w);
            report.taskCycles += w;
        }
        return report;
    }
};

WcetAnalyzer::WcetAnalyzer(const Program &prog, AnalyzerParams params)
    : impl_(std::make_unique<Impl>(prog, std::move(params)))
{
}

WcetAnalyzer::~WcetAnalyzer() = default;

WcetReport
WcetAnalyzer::analyze(MHz f, const DMissProfile *dmiss) const
{
    return impl_->analyze(f, dmiss);
}

WcetAttribution
WcetAnalyzer::attribute(MHz f, const DMissProfile *dmiss) const
{
    return impl_->attribute(f, dmiss);
}

const char *
wcetChargeKindName(WcetCharge::Kind kind)
{
    switch (kind) {
      case WcetCharge::Kind::Block:
        return "block";
      case WcetCharge::Kind::Loop:
        return "loop";
      case WcetCharge::Kind::Call:
        return "call";
      case WcetCharge::Kind::FirstMiss:
        return "first_miss";
      case WcetCharge::Kind::DMissPad:
        return "dmiss_pad";
    }
    return "?";
}

int
WcetAnalyzer::numSubtasks() const
{
    return impl_->numSubtasks;
}

const Cfg &
WcetAnalyzer::mainCfg() const
{
    return *impl_->funcs.at(impl_->mainEntry).cfg;
}

const ICacheAnalysis &
WcetAnalyzer::mainCache() const
{
    return *impl_->funcs.at(impl_->mainEntry).cache;
}

Cycles
WcetAnalyzer::missPenalty(MHz f) const
{
    return impl_->penaltyAt(f);
}

DMissProfile
profileDataMisses(const Program &prog, double safety_factor)
{
    MainMemory mem;
    Platform platform;
    MemController memctrl;
    mem.loadProgram(prog);
    SimpleCpu cpu(prog, mem, platform, memctrl);
    cpu.resetForTask();

    int subtasks = 1;
    if (!prog.subtaskStarts.empty()) {
        subtasks = 0;
        for (const auto &[addr, id] : prog.subtaskStarts)
            subtasks = std::max(subtasks, id);
    }
    DMissProfile out;
    out.safetyFactor = safety_factor;
    out.missesPerSubtask.assign(static_cast<std::size_t>(subtasks), 0);

    std::uint64_t last = 0;
    int cur = 0;
    platform.onSubtaskBegin = [&](int s) {
        std::uint64_t m = cpu.dcache().misses();
        out.missesPerSubtask[static_cast<std::size_t>(cur)] += m - last;
        last = m;
        cur = s - 1;
    };
    auto res = cpu.run(2'000'000'000ULL);
    if (res.reason != StopReason::Halted)
        fatal("profileDataMisses: program did not halt");
    out.missesPerSubtask[static_cast<std::size_t>(cur)] +=
        cpu.dcache().misses() - last;
    return out;
}

} // namespace visa
