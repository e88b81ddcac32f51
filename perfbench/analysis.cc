#include "perfbench/analysis.hh"

#include <algorithm>

using namespace visa;

namespace perfbench
{

std::unique_ptr<Sim>
buildSim(SpanLog &log, const Program &prog, CpuKind kind)
{
    Scope sp(log, "sim.builder");
    return SimBuilder().program(prog).cpu(kind).build();
}

std::unique_ptr<Sim>
buildSim(SpanLog &log, const Program &prog, RuntimeKind rt,
         const WcetTable &wcet, const DvsTable &dvs,
         const RuntimeConfig &cfg)
{
    Scope sp(log, "sim.builder");
    return SimBuilder().program(prog).runtime(rt, wcet, dvs, cfg).build();
}

std::unique_ptr<AnalyzedKernel>
analyzeKernel(SpanLog &log, const std::string &name)
{
    auto k = std::make_unique<AnalyzedKernel>();
    bench::ExperimentSetup &s = k->setup;
    {
        Scope sp(log, "workloads.make");
        s.wl = makeWorkload(name);
    }
    {
        Scope sp(log, "wcet.analyze");
        s.analyzer = std::make_unique<WcetAnalyzer>(s.wl.program);
        s.dmiss = profileDataMisses(s.wl.program);
        s.wcet = std::make_unique<WcetTable>(*s.analyzer, s.dvs, &s.dmiss);
    }
    {
        // One instance to completion on each pipeline; serial here so
        // set-up is single-threaded on every workload.
        Scope sp(log, "cpu.calibrate");
        std::unique_ptr<Sim> simple = buildSim(log, s.wl.program,
                                               CpuKind::Simple);
        simple->cpu().run(20'000'000'000ULL);
        std::unique_ptr<Sim> complex = buildSim(log, s.wl.program,
                                                CpuKind::Complex);
        complex->cpu().run(20'000'000'000ULL);
        k->instsPerJob = simple->cpu().retired();
        s.modeRatio = static_cast<double>(complex->cpu().cycles()) /
                      static_cast<double>(simple->cpu().cycles());
    }
    RuntimeConfig cfg = s.runtimeConfig(1.0);
    std::vector<std::uint64_t> pets;
    {
        Scope sp(log, "core.pet_profile");
        pets = profileComplexAets(s.wl.program, s.wl.numSubtasks);
    }
    double min_d = 0.0;
    {
        Scope sp(log, "core.deadline_solve");
        min_d = bench::minGuaranteeableDeadline(*s.wcet, s.dvs, pets, cfg);
    }
    s.minDeadline = min_d;
    s.tightDeadline = std::max(s.wcet->taskSeconds(bench::tightDeadlineFreq),
                               1.05 * min_d);
    s.looseDeadline = std::max(s.wcet->taskSeconds(bench::looseDeadlineFreq),
                               1.25 * s.tightDeadline);
    return k;
}

} // namespace perfbench
