// Span-tree tests: nesting, path aggregation, and propagation across
// ThreadPool fan-out (the span structure must be identical for any worker
// count).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "util/spans.h"
#include "util/thread_pool.h"

namespace {

/// Flattens a snapshot into "path:count" strings, depth-first — a
/// structural fingerprint that ignores durations.
void flatten(const util::SpanTree::Snapshot& s, const std::string& prefix,
             std::vector<std::string>& out) {
  const std::string path = prefix.empty() ? s.name : prefix + "/" + s.name;
  out.push_back(path + ":" + std::to_string(s.count));
  for (const auto& c : s.children) flatten(c, path, out);
}

std::vector<std::string> flatten(const util::SpanTree& tree) {
  std::vector<std::string> out;
  flatten(tree.snapshot(), "", out);
  return out;
}

/// RAII global-tree attachment for a test body.
struct AttachTree {
  explicit AttachTree(util::SpanTree& tree) {
    util::SpanTree::set_global(&tree);
  }
  ~AttachTree() { util::SpanTree::set_global(nullptr); }
};

TEST(Spans, DetachedSpanIsANoop) {
  ASSERT_EQ(util::SpanTree::global(), nullptr);
  AHS_SPAN("nobody.listening");
  SUCCEED();
}

TEST(Spans, NestedSpansAggregateByPath) {
  util::SpanTree tree;
  {
    AttachTree attach(tree);
    for (int i = 0; i < 3; ++i) {
      AHS_SPAN("outer");
      {
        AHS_SPAN("inner");
      }
      { AHS_SPAN("inner"); }
    }
    AHS_SPAN("other");
  }
  EXPECT_EQ(flatten(tree),
            (std::vector<std::string>{"run:0", "run/other:1", "run/outer:3",
                                      "run/outer/inner:6"}));
}

TEST(Spans, SiblingsSortedByName) {
  util::SpanTree tree;
  {
    AttachTree attach(tree);
    { AHS_SPAN("zeta"); }
    { AHS_SPAN("alpha"); }
    { AHS_SPAN("mid"); }
  }
  const auto snap = tree.snapshot();
  ASSERT_EQ(snap.children.size(), 3u);
  EXPECT_EQ(snap.children[0].name, "alpha");
  EXPECT_EQ(snap.children[1].name, "mid");
  EXPECT_EQ(snap.children[2].name, "zeta");
}

TEST(Spans, RecordsElapsedTime) {
  util::SpanTree tree;
  {
    AttachTree attach(tree);
    AHS_SPAN("sleepy");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto snap = tree.snapshot();
  ASSERT_EQ(snap.children.size(), 1u);
  EXPECT_GE(snap.children[0].seconds, 0.005);
}

TEST(Spans, ThreadPoolTasksNestUnderSubmittingSpan) {
  for (unsigned workers : {1u, 4u}) {
    util::SpanTree tree;
    {
      AttachTree attach(tree);
      util::ThreadPool pool(workers);
      AHS_SPAN("phase");
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([] { AHS_SPAN("task"); }));
      for (auto& f : futures) f.get();
    }
    // Identical structure for 1 worker and 4 workers.
    EXPECT_EQ(flatten(tree),
              (std::vector<std::string>{"run:0", "run/phase:1",
                                        "run/phase/task:8"}))
        << "workers=" << workers;
  }
}

}  // namespace
