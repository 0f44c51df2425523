#include "span_log.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(SpanLogTest, SelfTimeSubtractsChildren) {
  SpanLog log;
  const int32_t root = log.Begin("root", 7);
  const int32_t child = log.Begin("child", 7, root);
  log.End(child);
  log.End(root);
  const std::map<std::string, SpanTotals> totals = log.Totals();
  const SpanTotals& r = totals.at("root");
  const SpanTotals& c = totals.at("child");
  EXPECT_EQ(r.spans, 1u);
  EXPECT_NEAR(r.self_ms, r.total_ms - c.total_ms, 1e-9);
  EXPECT_NEAR(c.self_ms, c.total_ms, 1e-9);
}

TEST(SpanLogTest, AbsorbRebasesParents) {
  SpanLog a;
  a.End(a.Begin("a", 1));
  SpanLog b;
  const int32_t root = b.Begin("b", 2);
  b.End(b.Begin("b.child", 2, root));
  b.End(root);
  b.AddCount("wall_ms", 1.5, 2, true);
  a.Absorb(std::move(b));
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.spans()[2].request, 2u);
  ASSERT_EQ(a.counts().size(), 1u);
  EXPECT_TRUE(a.counts()[0].program_reported);
}

}  // namespace
}  // namespace perfbench
