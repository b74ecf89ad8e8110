/**
 * @file
 * Small measurement helpers of the end-to-end benchmark: clocks,
 * percentiles, a fixed-size latency histogram for the millions of
 * shim reads a run makes, and the heap in use.
 */

#ifndef BPERF_E2EBENCH_UTIL_H
#define BPERF_E2EBENCH_UTIL_H

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <malloc.h>
#include <pthread.h>
#include <vector>

#include "telemetry/telemetry.h"

namespace e2e {

/** Steady-clock nanoseconds: the time base of the program's window
 * spans and shim publish stamps, so every stamp compares directly. */
inline std::uint64_t
nowNs()
{
    return bperf::telemetry::nowNanos();
}

/** CPU time of a clock (process, thread or another thread's clock). */
inline double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** CPU clock of another thread of this process. */
inline clockid_t
threadClock(pthread_t thread)
{
    clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
    pthread_getcpuclockid(thread, &clock);
    return clock;
}

/** Heap bytes the process has allocated and not freed, over every
 * malloc arena (small blocks + mmapped large blocks).  Unlike RSS it
 * does not depend on which freed pages the allocator reuses. */
inline double
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

/** Linearly interpolated percentile (p in [0, 100]) of an unsorted
 * sample; sorts a copy.  0 for an empty sample. */
inline double
pct(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

/**
 * Nanosecond latency histogram with 1 ns buckets below kLinearNs and
 * exact samples above (rare for shim reads), so percentiles of many
 * millions of samples cost no per-sample allocation.
 */
class NsHistogram
{
  public:
    static constexpr std::uint64_t kLinearNs = 1 << 16;

    NsHistogram() : buckets_(kLinearNs, 0) { tail_.reserve(1 << 14); }

    void add(std::uint64_t ns)
    {
        ++count_;
        if (ns < kLinearNs)
            ++buckets_[ns];
        else if (tail_.size() < tail_.capacity())
            tail_.push_back(static_cast<double>(ns));
        else
            ++buckets_[kLinearNs - 1]; // saturate; never grows memory
    }

    std::uint64_t count() const { return count_; }

    /** Percentile in ns (0 when empty). */
    double percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        const std::uint64_t target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   p / 100.0 * static_cast<double>(count_) + 0.5));
        // Within the 1 ns bucket holding the target rank, place the
        // rank proportionally, so the value keeps sub-ns resolution.
        std::uint64_t seen = 0;
        for (std::uint64_t ns = 0; ns < kLinearNs; ++ns) {
            if (seen + buckets_[ns] >= target)
                return static_cast<double>(ns) +
                       (static_cast<double>(target - seen) - 0.5) /
                           static_cast<double>(buckets_[ns]);
            seen += buckets_[ns];
        }
        std::vector<double> tail = tail_;
        std::sort(tail.begin(), tail.end());
        const std::uint64_t idx = std::min<std::uint64_t>(
            target - seen - 1, tail.empty() ? 0 : tail.size() - 1);
        return tail.empty() ? static_cast<double>(kLinearNs) : tail[idx];
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::vector<double> tail_;
    std::uint64_t count_ = 0;
};

} // namespace e2e

#endif // BPERF_E2EBENCH_UTIL_H
