/**
 * @file
 * Tests for the benchmark's statistics helpers (stats.hh). Prints each
 * failed check and exits non-zero if any failed; run.py runs it before
 * every benchmark run.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::printf("FAIL line %d: %s\n", line, what);
        failures++;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; i++)
        v.push_back(i);
    return v;
}

void
percentileRule()
{
    using perfbench::summarize;

    // 1000 samples: p99 is rank 990 with exactly ten samples beyond it;
    // p99.9 would leave only one.
    auto s = summarize(oneTo(1000));
    CHECK(s.count == 1000);
    CHECK(s.tailPct == 99.0);
    CHECK(s.tail == 990.0);
    CHECK(s.median == 500.5);

    // 999 samples leave nine beyond p99, so the rule falls back to p90.
    s = summarize(oneTo(999));
    CHECK(s.tailPct == 90.0);
    CHECK(s.tail == 900.0);
    CHECK(s.median == 500.0);

    // 100000 samples support p99.99 (ten beyond rank 99990).
    s = summarize(oneTo(100000));
    CHECK(s.tailPct == 99.99);
    CHECK(s.tail == 99990.0);

    // Too few samples for any tail: the median stands in, pct 0.
    s = summarize(oneTo(30));
    CHECK(s.tailPct == 0.0);
    CHECK(s.tail == s.median);
    CHECK(s.count == 30);

    // Order of input does not matter.
    std::vector<double> rev = oneTo(1000);
    std::vector<double> back(rev.rbegin(), rev.rend());
    CHECK(summarize(back).tail == 990.0);

    s = summarize({});
    CHECK(s.count == 0 && s.tailPct == 0.0);

    CHECK(perfbench::samplesBeyond(1000, 99.0) == 10);
    CHECK(perfbench::samplesBeyond(1000, 99.9) == 1);
    CHECK(perfbench::samplesBeyond(10, 100.0) == 0);
}

void
openLoopLateness()
{
    using perfbench::openLoopAccount;

    // On time: latency is the service time, no lateness.
    auto s = openLoopAccount(100.0, 100.0, 101.5);
    CHECK(s.latency == 1.5);
    CHECK(s.lateness == 0.0);

    // The generator was held up 40 ms (e.g. its connection was stuck
    // on an earlier request): the wait counts in the latency, and the
    // lateness reports the generator's own delay.
    s = openLoopAccount(100.0, 140.0, 141.0);
    CHECK(s.latency == 41.0);
    CHECK(s.lateness == 40.0);

    // Sent early (clock granularity) never counts as negative lateness.
    s = openLoopAccount(100.0, 99.9, 100.4);
    CHECK(s.lateness == 0.0);
    CHECK(std::fabs(s.latency - 0.4) < 1e-9);

    // The schedule: 3 tabs x 2 targets at 1 Hz over 2.5 s is two or
    // three ticks per tab, each fetching both targets at once, in order.
    auto sched = perfbench::dashboardSchedule(7, 3, 2, 1.0, 2.5);
    CHECK(sched.size() >= 12 && sched.size() <= 18);
    bool sorted = true;
    int counts[2] = {0, 0};
    for (std::size_t i = 0; i < sched.size(); i++) {
        if (i > 0 && sched[i].first < sched[i - 1].first)
            sorted = false;
        CHECK(sched[i].first >= 0 && sched[i].first < 2.5);
        counts[sched[i].second]++;
        // A tick's targets share one due time.
        if (sched[i].second == 1)
            CHECK(i > 0 && sched[i - 1].first == sched[i].first);
    }
    CHECK(sorted);
    CHECK(counts[0] == counts[1]);
    // Same seed, same schedule; another seed moves the phases.
    CHECK(sched == perfbench::dashboardSchedule(7, 3, 2, 1.0, 2.5));
    CHECK(sched != perfbench::dashboardSchedule(8, 3, 2, 1.0, 2.5));
}

void
metricNames()
{
    using perfbench::validMetricName;

    CHECK(validMetricName("wall_s"));
    CHECK(validMetricName("mem.l1.hit_ratio"));
    CHECK(validMetricName("gen-lag.p99"));
    CHECK(validMetricName("9lives"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_leading"));
    CHECK(!validMetricName(".leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/s"));
    CHECK(!validMetricName("quote\""));
    CHECK(validMetricName(std::string(64, 'a')));
    CHECK(!validMetricName(std::string(65, 'a')));
}

} // namespace

int
main()
{
    percentileRule();
    openLoopLateness();
    metricNames();
    if (failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
