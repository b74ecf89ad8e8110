#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "baselines/linux_scaling.h"
#include "bench_util.h"
#include "core/bayesperf.h"
#include "service/record_stream.h"
#include "service/streaming_inference.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "util.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace e2e {

namespace {

/** splitmix64 finaliser: independent per-tenant seeds from one. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tenant, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tenant * 0xbf58476d1ce4e5b9ull +
                      salt * 0x94d049bb133111ebull + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<sim::EventId>
roleEvents(const sim::MicroarchDescriptor &uarch,
           std::initializer_list<sim::Role> roles)
{
    std::vector<sim::EventId> out;
    for (sim::Role r : roles)
        out.push_back(uarch.idForRole(r));
    return out;
}

/** Run fn(i) for i in [0, n) on up to `threads` threads. */
template <typename Fn>
void
parallelFor(std::size_t n, std::size_t threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    auto body = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < std::min(threads, n); ++t)
        pool.emplace_back(body);
    body();
    for (auto &t : pool)
        t.join();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fleet-paced", "wide-replay", "burst-many"};
    return names;
}

std::optional<WorkloadSpec>
makeWorkload(const std::string &name, const sim::MicroarchDescriptor &uarch,
             unsigned seconds)
{
    using sim::Role;
    WorkloadSpec w;
    w.name = name;
    if (name == "fleet-paced") {
        // The perf_daemon deployment: 13 events (10 + 3 fixed), k = 6.
        w.tenants = 8;
        w.events = roleEvents(uarch, {Role::LlcMiss, Role::L2Miss,
                                      Role::L1DMiss, Role::Loads,
                                      Role::Stores, Role::Branches,
                                      Role::BranchMisses, Role::StallMem,
                                      Role::StallTotal, Role::DramBytes});
        w.profiles = {"KMeans", "Sort",     "Bayes", "PageRank",
                      "WordCount", "TeraSort", "LR",    "Join"};
        w.windowSlices = 6;
        w.slicePeriodSeconds = 0.005;
        w.queueCapacity = 1 << 12;
    } else if (name == "wide-replay") {
        // The 29 section 6.2 events + 3 fixed: a full 32-counter slot.
        w.tenants = 4;
        w.events = bench::evaluationEventSet(uarch);
        w.profiles = {"KMeans", "Sort", "Bayes", "PageRank"};
        w.windowSlices = 6;
        w.slices = 120;
        w.queueCapacity = 1 << 13;
    } else if (name == "burst-many") {
        // Many small sessions (6 + 3 fixed events, k = 3) whose
        // slices all land on the same tick.
        w.tenants = 48;
        w.events = roleEvents(uarch, {Role::LlcMiss, Role::L2Miss,
                                      Role::Loads, Role::Stores,
                                      Role::Branches, Role::BranchMisses});
        w.profiles = wl::hibenchNames();
        w.windowSlices = 3;
        w.slicePeriodSeconds = 0.020;
        w.burst = true;
        w.queueCapacity = 1 << 12;
    } else {
        return std::nullopt;
    }
    if (w.paced())
        w.slices = static_cast<std::size_t>(
            std::llround(seconds / w.slicePeriodSeconds));
    return w;
}

service::SessionConfig
sessionConfig(const WorkloadSpec &spec)
{
    service::SessionConfig cfg;
    cfg.queueCapacity = spec.queueCapacity;
    cfg.streaming.inference.windowSlices = spec.windowSlices;
    return cfg;
}

std::vector<TenantInput>
makeInputs(const WorkloadSpec &spec, const sim::MicroarchDescriptor &uarch,
           std::uint64_t seed, std::size_t threads)
{
    std::vector<TenantInput> inputs(spec.tenants);
    const std::vector<sim::EventId> monitored =
        core::resolveMonitoredSet(uarch, spec.events);
    const std::vector<sim::EventId> fixed = uarch.fixedEvents();
    parallelFor(spec.tenants, threads, [&](std::size_t t) {
        TenantInput &in = inputs[t];
        in.profile = spec.profiles[t % spec.profiles.size()];
        in.monitored = monitored;
        const sim::GroundTruthGenerator generator(uarch,
                                                  wl::makeHibench(in.profile));
        const sim::TruthTrace truth =
            generator.generate(spec.slices, mixSeed(seed, t, 1));
        sim::PerfSessionConfig perf_cfg;
        perf_cfg.seed = mixSeed(seed, t, 2);
        sim::PerfSession session(uarch, perf_cfg);
        const sim::PerfResult run = session.runRoundRobin(truth, monitored);

        in.slices.resize(spec.slices);
        for (std::size_t s = 0; s < spec.slices; ++s)
            in.slices[s] = service::sliceRecords(run, s);
        const baselines::LinuxEstimator linux_est;
        for (sim::EventId e : monitored) {
            in.multiplexed.push_back(
                std::find(fixed.begin(), fixed.end(), e) == fixed.end());
            in.linux.push_back(linux_est.series(run, e));
            std::vector<double> totals(spec.slices);
            for (std::size_t s = 0; s < spec.slices; ++s)
                totals[s] = truth.sliceTotal(s, e);
            in.truth.push_back(std::move(totals));
        }
    });
    return inputs;
}

std::vector<Replay>
replayAll(const WorkloadSpec &spec, const sim::MicroarchDescriptor &uarch,
          const std::vector<TenantInput> &inputs, std::size_t threads)
{
    const service::StreamingConfig streaming = sessionConfig(spec).streaming;
    std::vector<Replay> replays(inputs.size());
    parallelFor(inputs.size(), threads, [&](std::size_t t) {
        Replay &r = replays[t];
        service::StreamingInference engine(uarch, inputs[t].monitored,
                                           streaming);
        const double cpu0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        for (const auto &slice : inputs[t].slices)
            for (const auto &rec : slice)
                engine.consume(rec);
        r.cpuSeconds = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
        for (const auto &exec : engine.takeWindowExecutions())
            r.windowEndSlice.push_back(exec.endSlice);
        r.windows = engine.engine().windowsRun();
        r.slices = engine.slicesAssembled();
        engine.engine().latestPosteriors(r.lastPosterior);
        engine.finish();
        r.result = engine.takeResult();
    });
    return replays;
}

double
Accuracy::linuxErrPct() const
{
    return points ? linuxErrSum / static_cast<double>(points) : 0.0;
}

double
Accuracy::posteriorErrPct() const
{
    return points ? posteriorErrSum / static_cast<double>(points) : 0.0;
}

void
scoreTenant(const TenantInput &input, const core::InferenceResult &posterior,
            Accuracy &acc)
{
    for (std::size_t i = 0; i < posterior.events.size(); ++i) {
        const auto &series = posterior.series[i];
        for (const auto &p : series)
            if (!std::isfinite(p.mean) || !std::isfinite(p.stddev) ||
                !(p.stddev > 0.0))
                ++acc.invalidPoints;
        if (!input.multiplexed[i])
            continue;
        double post_err = 0.0, linux_err = 0.0;
        std::size_t n = 0;
        for (std::size_t t = 0; t < series.size(); ++t) {
            const std::size_t s = posterior.firstSlice + t;
            if (s >= input.truth[i].size())
                break;
            const double truth = input.truth[i][s];
            const double denom = std::max(truth, 1.0);
            const double err = std::abs(series[t].mean - truth);
            post_err += 100.0 * err / denom;
            linux_err += 100.0 * std::abs(input.linux[i][s] - truth) / denom;
            if (err <= series[t].stddev)
                ++acc.within1Sigma;
            if (err <= 2.0 * series[t].stddev)
                ++acc.within2Sigma;
            ++n;
        }
        acc.posteriorErrSum += post_err;
        acc.linuxErrSum += linux_err;
        acc.points += n;
        ++acc.estimates;
        if (post_err > linux_err)
            ++acc.worseThanLinux;
    }
}

bool
sameBits(const core::PosteriorPoint &a, const core::PosteriorPoint &b)
{
    return std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0 &&
           std::memcmp(&a.stddev, &b.stddev, sizeof(double)) == 0;
}

bool
sameSeries(const core::InferenceResult &a, const core::InferenceResult &b)
{
    if (a.events != b.events || a.firstSlice != b.firstSlice ||
        a.series.size() != b.series.size())
        return false;
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        if (a.series[i].size() != b.series[i].size())
            return false;
        for (std::size_t t = 0; t < a.series[i].size(); ++t)
            if (!sameBits(a.series[i][t], b.series[i][t]))
                return false;
    }
    return true;
}

} // namespace e2e
