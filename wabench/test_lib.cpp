// Tests of the benchmark's own machinery: the seeded schedule, the tail
// picker and the ledger-closure check.
#include <gtest/gtest.h>

#include <cstring>

#include "lib.hpp"

namespace wabench {
namespace {

std::vector<std::uint8_t> bytes_of(const std::vector<Arrival>& s) {
  std::vector<std::uint8_t> out;
  for (const Arrival& a : s) {
    std::uint8_t buf[11];
    std::memcpy(buf, &a.send_ns, 8);
    buf[8] = a.model;
    buf[9] = a.priority;
    buf[10] = a.input;
    out.insert(out.end(), buf, buf + 11);
  }
  return out;
}

TEST(Schedule, SameSeedGivesIdenticalBytes) {
  const auto a = make_schedule(42, 150.0, 10.0, 1000, 8);
  const auto b = make_schedule(42, 150.0, 10.0, 1000, 8);
  EXPECT_EQ(bytes_of(a), bytes_of(b));
  EXPECT_NE(bytes_of(a), bytes_of(make_schedule(43, 150.0, 10.0, 1000, 8)));
}

TEST(Schedule, PinnedPrefix) {
  // Golden values: a change to the gap transform or the mix mapping changes
  // every recorded run's traffic, so it must show up here.
  const auto s = make_schedule(7, 150.0, 1.0, 1, 8);
  ASSERT_GE(s.size(), 4u);
  const Arrival golden[4] = {{9359941ULL, 1, 1, 3},
                             {29238962ULL, 1, 1, 2},
                             {30071624ULL, 0, 0, 3},
                             {44903761ULL, 1, 0, 2}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s[i].send_ns, golden[i].send_ns) << i;
    EXPECT_EQ(s[i].model, golden[i].model) << i;
    EXPECT_EQ(s[i].priority, golden[i].priority) << i;
    EXPECT_EQ(s[i].input, golden[i].input) << i;
  }
}

TEST(Schedule, MeetsBothMinimumsAndTheMix) {
  const auto s = make_schedule(3, 200.0, 30.0, 100, 8);
  EXPECT_GE(s.back().send_ns, static_cast<std::uint64_t>(29e9));
  const auto short_one = make_schedule(3, 200.0, 0.01, 500, 8);
  EXPECT_EQ(short_one.size(), 500u);

  std::size_t model1 = 0, cls[3] = {};
  for (const Arrival& a : s) {
    model1 += a.model;
    ++cls[a.priority];
  }
  const double n = static_cast<double>(s.size());
  EXPECT_NEAR(static_cast<double>(s.size()) / 30.0, 200.0, 10.0);
  EXPECT_NEAR(static_cast<double>(model1) / n, 2.0 / 3.0, 0.03);
  EXPECT_NEAR(static_cast<double>(cls[0]) / n, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(cls[1]) / n, 0.7, 0.03);
  EXPECT_NEAR(static_cast<double>(cls[2]) / n, 0.1, 0.03);
}

TEST(Tail, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(pick_tail_bp(19), 0);
  EXPECT_EQ(pick_tail_bp(20), 5000);
  EXPECT_EQ(pick_tail_bp(39), 5000);
  EXPECT_EQ(pick_tail_bp(40), 7500);
  EXPECT_EQ(pick_tail_bp(100), 9000);
  EXPECT_EQ(pick_tail_bp(199), 9000);
  EXPECT_EQ(pick_tail_bp(200), 9500);
  EXPECT_EQ(pick_tail_bp(999), 9500);
  EXPECT_EQ(pick_tail_bp(1000), 9900);
  EXPECT_EQ(pick_tail_bp(2000), 9950);
  EXPECT_EQ(pick_tail_bp(10000), 9990);
  EXPECT_EQ(pick_tail_bp(1000000), 9990);
  for (std::size_t n = 20; n < 3000; ++n) {
    EXPECT_GE(samples_beyond(n, pick_tail_bp(n)), 10u) << n;
  }
}

TEST(Tail, NearestRankValues) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile_bp(v, 9900), 990.0);
  EXPECT_EQ(percentile_bp(v, 5000), 500.0);
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(bp_name(9900), "p99");
  EXPECT_EQ(bp_name(9950), "p99.5");
  EXPECT_EQ(bp_name(7500), "p75");

  const LatencySummary s = summarize(v, 1000);
  EXPECT_EQ(s.tail_bp, 9900);
  EXPECT_EQ(s.tail_ms, 990.0);
  EXPECT_EQ(s.beyond, 10u);
  // More samples than planned keep the planned percentile.
  v.push_back(2000);
  EXPECT_EQ(summarize(v, 1000).tail_bp, 9900);
}

wa::telemetry::Span span(const char* name, std::uint64_t tid, std::int64_t ts, std::int64_t dur) {
  return {name, "test", tid, ts, dur, {}};
}

bool any_part(const LedgerSpan&) { return true; }

TEST(Ledger, ClosesWhenPartsCoverTheParent) {
  const Ledger l = Ledger::build({span("forward", 1, 0, 100), span("stage:a", 1, 0, 50),
                                  span("stage:b", 1, 50, 49)});
  const Closure c = check_closure(l, "forward", any_part, 0.05);
  EXPECT_TRUE(c.closes());
  EXPECT_EQ(c.parents, 1u);
  EXPECT_NEAR(c.gap, 0.01, 1e-12);
}

TEST(Ledger, FailsOnAGap) {
  const Ledger l = Ledger::build({span("forward", 1, 0, 100), span("stage:a", 1, 0, 40),
                                  span("stage:b", 1, 60, 40)});
  const Closure c = check_closure(l, "forward", any_part, 0.05);
  EXPECT_FALSE(c.closes());
  EXPECT_EQ(c.open, 1u);
  EXPECT_NEAR(c.gap, 0.2, 1e-12);
}

TEST(Ledger, OneGappedParentAmongManyStillCloses) {
  // One forward preempted between stages does not open the aggregate; a gap
  // in every forward does.
  std::vector<wa::telemetry::Span> spans;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    const std::int64_t t = static_cast<std::int64_t>(id) * 1000;
    spans.push_back(span("forward", id, t, 100));
    spans.push_back(span("stage:a", id, t, 50));
    spans.push_back(span("stage:b", id, t + 50, id == 7 ? 20 : 50));
  }
  const Closure c = check_closure(Ledger::build(spans), "forward", any_part, 0.05);
  EXPECT_TRUE(c.closes());
  EXPECT_EQ(c.open, 1u);
  EXPECT_NEAR(c.worst_gap, 0.3, 1e-12);
  for (auto& s : spans) {
    if (s.name == "stage:b") s.dur_ns = 30;
  }
  EXPECT_FALSE(check_closure(Ledger::build(spans), "forward", any_part, 0.05).closes());
}

TEST(Ledger, NestsByIdAndContainmentAndComputesSelfTime) {
  // Two ids interleaved in time; a grandchild; a span of another id inside
  // the first parent's interval must not be taken as its child.
  const Ledger l = Ledger::build({span("request", 1, 0, 100), span("dispatch", 1, 20, 80),
                                  span("stage:x", 1, 30, 60), span("wino.gemm", 1, 30, 40),
                                  span("request", 2, 10, 50)});
  ASSERT_EQ(l.spans.size(), 5u);
  EXPECT_EQ(l.spans[1].parent, 0);
  EXPECT_EQ(l.spans[2].parent, 1);
  EXPECT_EQ(l.spans[3].parent, 2);
  EXPECT_EQ(l.spans[4].parent, -1);
  EXPECT_EQ(l.spans[0].self_ns, 20);
  EXPECT_EQ(l.spans[1].self_ns, 20);
  EXPECT_EQ(l.spans[2].self_ns, 20);
  EXPECT_EQ(l.self_total_ns("request"), 20 + 50);
  EXPECT_EQ(l.total_ns("stage:*"), 60);
  EXPECT_EQ(l.count("request"), 2u);
}

TEST(Ledger, MeanClosureFailsOnAGap) {
  // Client 20 ms against server 18 ms + codec 0.5 ms: a 7.5% residual.
  EXPECT_TRUE(mean_closure("client", 100, 20.0, 18.5, 0.10).closes());
  const Closure c = mean_closure("client", 100, 20.0, 18.5, 0.05);
  EXPECT_FALSE(c.closes());
  EXPECT_NEAR(c.gap, 0.075, 1e-12);
  EXPECT_FALSE(mean_closure("client", 0, 0.0, 0.0, 0.10).closes());
}

TEST(Ledger, NoParentsMeansNotClosed) {
  const Ledger l = Ledger::build({span("stage:a", 1, 0, 10)});
  EXPECT_FALSE(check_closure(l, "forward", any_part, 0.05).closes());
}

}  // namespace
}  // namespace wabench
