/**
 * @file
 * The benchmark's workloads as lists of cells, built exactly as the
 * paper benches build theirs (bench_fig8_speedup, bench_fig11_
 * oversubscription, bench_fig14_hmm, bench_tenants, bench_fig6_transfer),
 * plus the per-cell set-up / run / harvest steps the benchmark times.
 *
 * Seeds: `seed` is RuntimeConfig::seed. The development seed 1 is the
 * paperDefault() value, so at seed 1 every cell is the bench's own
 * cell; any other seed shifts every seed a bench fixes (workload,
 * tenant and fig6b RNG seeds) by the same offset.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "pcie/transfer_manager.hpp"
#include "sim/channel.hpp"
#include "util/rng.hpp"

namespace perfbench
{

struct LayerSpans;

/** RuntimeConfig::paperDefault().seed: the benches' own inputs. */
constexpr std::uint64_t kDevSeed = 1;

/** Requests per tenant in bench_tenants (full size). */
constexpr std::uint64_t kBenchTenantRequests = 2000;

/** Warp windows per fig6b cell in bench_fig6_transfer (full size). */
constexpr std::uint64_t kFig6Windows = 20000;

/** One engine run: a closed-loop app or a multi-tenant serving mix. */
struct EngineCell
{
    std::string figure; ///< "fig8", "fig11", "fig14" or "tenants"
    gmt::harness::System system = gmt::harness::System::GmtReuse;
    std::string app;    ///< Table 2 app (closed-loop cells)
    gmt::RuntimeConfig cfg;
    std::vector<gmt::workloads::TenantSpec> tenants; ///< serving cells
};

/** Fig 8 (OSF 2) and Fig 11 (OSF 4) over the four systems, then the
 *  Fig 14 HMM cells at OSF 2, in bench order. */
std::vector<EngineCell> paperCells(std::uint64_t seed);

/** bench_tenants: OSF {2,4,8,16} x {shared clock, QoS}. */
std::vector<EngineCell> servingCells(std::uint64_t seed,
                                     std::uint64_t requests);

/** makeWorkload / makeTenantStream for @p cell, sized as
 *  harness::runSystem / harness::runTenants size them. Every cell runs
 *  on the default gpu::EngineConfig. */
std::unique_ptr<gmt::gpu::AccessStream> makeStream(const EngineCell &cell);

/** What harness::runOne harvests from a finished run, read from the
 *  runtime and stream the engine drove (or the ones they wrap). */
gmt::harness::ExperimentResult harvest(const gmt::TieredRuntime &runtime,
                                       gmt::gpu::AccessStream &stream,
                                       const gmt::gpu::RunResult &run,
                                       gmt::SimTime flushed);

/** One Fig 6b cell: a transfer scheme at one Zipf skew. */
struct TransferCell
{
    double skew = 0.0;
    gmt::pcie::TransferScheme scheme = gmt::pcie::TransferScheme::DmaOnly;
    std::uint64_t rngSeed = 42;
};

/** The 6 skews x 5 schemes of Fig 6b, skew-major as the bench prints. */
std::vector<TransferCell> transferCells(std::uint64_t seed);

/** Number of schemes per Fig 6b row. */
constexpr std::size_t kFig6Schemes = 5;

/** Set-up products of one Fig 6b cell (the manager holds the link). */
struct TransferRig
{
    explicit TransferRig(const TransferCell &cell);
    TransferRig(const TransferRig &) = delete;
    TransferRig &operator=(const TransferRig &) = delete;

    gmt::sim::BandwidthChannel link;
    gmt::pcie::TransferManager tm;
    gmt::Rng rng;
    gmt::ZipfSampler zipf;
};

/** Outcome of one Fig 6b cell. */
struct TransferResult
{
    double bandwidthGBs = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t lanes = 0;       ///< lane page requests drawn
    std::uint64_t pagesMoved = 0;  ///< the transfer manager's own count
    gmt::SimTime endNs = 0;

    bool operator==(const TransferResult &) const = default;
};

/** bench_fig6_transfer's zipfBandwidthGBs over @p rig. With @p spans
 *  every sampler draw, transfer and window is timed. */
TransferResult runTransfer(TransferRig &rig, LayerSpans *spans);

/** One line per result, every field, for the reference file. */
std::string formatResult(const gmt::harness::ExperimentResult &r);
std::string formatResult(const TransferResult &r);

/** Conservation laws every engine cell obeys at any seed; empty when
 *  they hold, else what broke. */
std::string checkInvariants(const gmt::harness::ExperimentResult &r);
std::string checkInvariants(const TransferResult &r);

/** Fig 8a's per-app GMT-Reuse speedups, as held in bench_fig8_speedup. */
double paperReuseSpeedup(const std::string &app);

} // namespace perfbench
