/**
 * @file
 * Per-kernel set-up shared by the visa-fig2 and chip-sched workloads:
 * the steps of bench::initSetup (bench/bench_util.hh), in the same
 * order and with the same arguments, each wrapped in a span so the
 * traced run can split set-up time by layer.
 */

#ifndef VISA_PERFBENCH_ANALYSIS_HH
#define VISA_PERFBENCH_ANALYSIS_HH

#include <memory>
#include <string>

#include "bench/bench_util.hh"
#include "perfbench/harness.hh"

namespace perfbench
{

/** An analyzed kernel: the experiment set-up plus what calibration saw. */
struct AnalyzedKernel
{
    visa::bench::ExperimentSetup setup;
    /** Instructions one task instance retires (simple-pipeline run). */
    std::uint64_t instsPerJob = 0;
};

/**
 * Build one simulated machine through SimBuilder (span "sim.builder");
 * the second form also wires a DVS runtime to core 0.
 */
std::unique_ptr<visa::Sim> buildSim(SpanLog &log, const visa::Program &prog,
                                    visa::CpuKind kind);
std::unique_ptr<visa::Sim> buildSim(SpanLog &log, const visa::Program &prog,
                                    visa::RuntimeKind rt,
                                    const visa::WcetTable &wcet,
                                    const visa::DvsTable &dvs,
                                    const visa::RuntimeConfig &cfg);

/**
 * Analyze kernel @p name. Heap-allocated and never moved: the analyzer
 * keeps a reference to setup.wl.program.
 */
std::unique_ptr<AnalyzedKernel> analyzeKernel(SpanLog &log,
                                              const std::string &name);

} // namespace perfbench

#endif // VISA_PERFBENCH_ANALYSIS_HH
