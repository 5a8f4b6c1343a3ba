#include "layers.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace perfbench
{

namespace
{

/** Stand-in for a wrapped call: one virtual hop, an empty timed body,
 *  the same bookkeeping as the wrappers. */
struct EmptyLayer
{
    virtual ~EmptyLayer() = default;
    virtual void call(Span &s);
    virtual void callSampled(SampledSpan &s, std::uint64_t &rng);
};

void
EmptyLayer::call(Span &s)
{
    const Ticks t0 = ticks();
    asm volatile("" ::: "memory");
    s.add(ticks() - t0);
}

void
EmptyLayer::callSampled(SampledSpan &s, std::uint64_t &rng)
{
    s.run(rng, [] { asm volatile("" ::: "memory"); });
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

Calibration
Calibration::measure()
{
    using Clock = std::chrono::steady_clock;
    Calibration c;

    const auto c0 = Clock::now();
    const Ticks t0 = ticks();
    while (Clock::now() - c0 < std::chrono::milliseconds(50)) {
    }
    const auto c1 = Clock::now();
    const Ticks t1 = ticks();
    c.nsPerTick =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0)
                   .count())
        / double(t1 - t0);

    // Volatile pointer: the compiler cannot see which call() runs, so
    // the loops keep the virtual hop the wrappers pay.
    EmptyLayer layer;
    EmptyLayer *volatile target = &layer;
    constexpr int kCalls = 200000;
    std::vector<double> inside, whole, sampled;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int trial = 0; trial < 9; ++trial) {
        Span s;
        Ticks a = ticks();
        for (int i = 0; i < kCalls; ++i)
            target->call(s);
        Ticks b = ticks();
        inside.push_back(double(s.ticks) / kCalls);
        whole.push_back(double(b - a) / kCalls);

        SampledSpan ss;
        a = ticks();
        for (int i = 0; i < kCalls; ++i)
            target->callSampled(ss, rng);
        b = ticks();
        sampled.push_back(double(b - a) / kCalls);
    }
    c.insideTicks = median(inside);
    c.spanTicks = median(whole);
    c.sampledTicks = median(sampled);
    return c;
}

namespace
{

/** The spans GpuEngine::run's own span encloses. */
std::array<const SampledSpan *, 7>
engineChildren(const LayerSpans &s)
{
    return {&s.core.tryHit,      &s.core.access,      &s.core.background,
            &s.baselines.tryHit, &s.baselines.access, &s.baselines.background,
            &s.next};
}

} // namespace

double
LayerSpans::gpuRunNs(const Calibration &c) const
{
    double ns = c.workNs(gpuRun);
    for (const SampledSpan *child : engineChildren(*this))
        ns -= c.overheadNs(*child);
    return std::max(ns, 0.0);
}

double
LayerSpans::gpuSelfNs(const Calibration &c) const
{
    double ns = gpuRunNs(c);
    for (const SampledSpan *child : engineChildren(*this))
        ns -= c.workNs(*child);
    return std::max(ns, 0.0);
}

double
LayerSpans::filterNs(const Calibration &c) const
{
    const double ns = c.workNs(window) - c.overheadNs(zipf)
        - c.overheadNs(pcie) - c.workNs(zipf) - c.workNs(pcie);
    return std::max(ns, 0.0);
}

} // namespace perfbench
