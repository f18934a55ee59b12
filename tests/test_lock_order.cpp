// Lock-order validator tests (util/lock_order.h + util/mutex.h):
//   - a consistent acquisition order across threads passes and records
//     acquired-after edges;
//   - a deliberate two-mutex inversion fires a violation carrying BOTH
//     stacks (the acquiring thread's and the one that established the
//     conflicting order);
//   - recursive/self-level misuse is detected;
//   - disabling the validator records nothing (the Release default);
//   - the documented hierarchy in docs/concurrency.md replays clean: the
//     machine-readable block is the contract, this test is its executor.
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/lock_order.h"
#include "util/mutex.h"

namespace lock_order = aalign::util::lock_order;
using aalign::Mutex;
using aalign::MutexLock;

namespace {

// The violation handler is a plain function pointer, so captures go
// through static storage. Tests run serially within the binary.
std::vector<lock_order::Violation>& captured() {
  static auto* v = new std::vector<lock_order::Violation>();
  return *v;
}

void capture_handler(const lock_order::Violation& v) {
  captured().push_back(v);
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    captured().clear();
    lock_order::reset();
    lock_order::set_enabled(true);
    prev_handler_ = lock_order::set_violation_handler(&capture_handler);
  }

  void TearDown() override {
    lock_order::set_violation_handler(prev_handler_);
    lock_order::set_enabled(false);
    lock_order::reset();
  }

  lock_order::Handler prev_handler_ = nullptr;
};

bool stack_has(const std::vector<std::string>& stack, const std::string& s) {
  for (const std::string& e : stack) {
    if (e == s) return true;
  }
  return false;
}

TEST_F(LockOrderTest, ConsistentOrderAcrossThreadsPasses) {
  Mutex outer("test.outer");
  Mutex inner("test.inner");
  auto take_both = [&] {
    MutexLock a(outer);
    MutexLock b(inner);
  };
  std::thread t1(take_both);
  t1.join();
  std::thread t2(take_both);
  t2.join();
  take_both();
  EXPECT_TRUE(captured().empty());
  const auto s = lock_order::stats();
  EXPECT_GE(s.order_edges, 1u);  // test.outer -> test.inner
  EXPECT_EQ(s.violations, 0u);
}

TEST_F(LockOrderTest, InversionReportedWithBothStacks) {
  Mutex a("test.A");
  Mutex b("test.B");
  // Thread 1 establishes A -> B.
  std::thread establish([&] {
    MutexLock la(a);
    MutexLock lb(b);
  });
  establish.join();
  ASSERT_TRUE(captured().empty());

  // Thread 2 inverts: B then A.
  std::thread invert([&] {
    MutexLock lb(b);
    MutexLock la(a);
  });
  invert.join();

  ASSERT_EQ(captured().size(), 1u);
  const lock_order::Violation& v = captured().front();
  EXPECT_EQ(v.kind, lock_order::Violation::Kind::kCycle);
  EXPECT_EQ(v.acquiring, "test.A");
  EXPECT_EQ(v.conflicting, "test.B");
  // The inverting thread's stack: B held, A being acquired.
  EXPECT_TRUE(stack_has(v.current_stack, "test.A"));
  EXPECT_TRUE(stack_has(v.current_stack, "test.B"));
  ASSERT_GE(v.current_stack.size(), 2u);
  EXPECT_EQ(v.current_stack.front(), "test.B");
  EXPECT_EQ(v.current_stack.back(), "test.A");
  // The establishing acquisition's stack: A held, B acquired.
  ASSERT_GE(v.prior_stack.size(), 2u);
  EXPECT_EQ(v.prior_stack.front(), "test.A");
  EXPECT_EQ(v.prior_stack.back(), "test.B");
  // The human-readable report names both stacks.
  const std::string report = v.to_string();
  EXPECT_NE(report.find("test.A"), std::string::npos);
  EXPECT_NE(report.find("test.B"), std::string::npos);
  EXPECT_NE(report.find("this thread's lock stack"), std::string::npos);
  EXPECT_NE(report.find("conflicting order first recorded"),
            std::string::npos);
  EXPECT_EQ(lock_order::stats().violations, 1u);
}

TEST_F(LockOrderTest, TransitiveInversionDetected) {
  Mutex a("test.t.A");
  Mutex b("test.t.B");
  Mutex c("test.t.C");
  {
    // A -> B, then B -> C: order A before C is implied transitively.
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  ASSERT_TRUE(captured().empty());
  {
    MutexLock lc(c);
    MutexLock la(a);  // violates the transitive A -> C order
  }
  ASSERT_EQ(captured().size(), 1u);
  EXPECT_EQ(captured().front().kind, lock_order::Violation::Kind::kCycle);
  EXPECT_EQ(captured().front().acquiring, "test.t.A");
}

TEST_F(LockOrderTest, RecursiveAcquisitionDetected) {
  // Exercised through the raw hook: actually double-locking an
  // aalign::Mutex would deadlock on the underlying std::mutex.
  int dummy = 0;
  lock_order::on_acquire(&dummy, "test.rec");
  lock_order::on_acquire(&dummy, "test.rec");
  ASSERT_FALSE(captured().empty());
  EXPECT_EQ(captured().front().kind,
            lock_order::Violation::Kind::kRecursive);
  lock_order::on_release(&dummy);
  lock_order::on_release(&dummy);
}

TEST_F(LockOrderTest, SameLevelNestingDetected) {
  // Two distinct instances of the same hierarchy level must never nest:
  // two threads doing it with swapped instances would deadlock.
  Mutex m1("test.same_level");
  Mutex m2("test.same_level");
  MutexLock l1(m1);
  MutexLock l2(m2);
  ASSERT_EQ(captured().size(), 1u);
  EXPECT_EQ(captured().front().kind,
            lock_order::Violation::Kind::kSelfLevel);
}

TEST_F(LockOrderTest, DisabledValidatorRecordsNothing) {
  // The Release-build default: hooks short-circuit on the enabled flag.
  lock_order::set_enabled(false);
  lock_order::reset();
  Mutex outer("test.off.outer");
  Mutex inner("test.off.inner");
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  {
    MutexLock b(inner);
    MutexLock a(outer);  // inverted - but nobody is watching
  }
  const auto s = lock_order::stats();
  EXPECT_EQ(s.order_edges, 0u);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_TRUE(captured().empty());
}

// Reads the machine-readable hierarchy block out of docs/concurrency.md:
//
//   <!-- lock-order:hierarchy
//   <level name, outermost first>
//   ...
//   -->
std::vector<std::string> documented_hierarchy() {
  const std::string path = std::string(AALIGN_DOCS_DIR) + "/concurrency.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> levels;
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    // Trim trailing CR / surrounding spaces.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    const std::string t = line.substr(start);
    if (t == "<!-- lock-order:hierarchy") {
      in_block = true;
      continue;
    }
    if (in_block && t == "-->") break;
    if (in_block && !t.empty() && t[0] != '#') levels.push_back(t);
  }
  return levels;
}

TEST_F(LockOrderTest, DocumentedHierarchyReplaysClean) {
  const std::vector<std::string> levels = documented_hierarchy();
  ASSERT_GE(levels.size(), 5u)
      << "docs/concurrency.md lock-order:hierarchy block missing or empty";

  // Build one mutex per documented level and acquire the whole chain
  // nested in documented order: every adjacent (and transitive) pair
  // becomes an acquired-after edge, none may conflict.
  std::vector<std::unique_ptr<Mutex>> mus;
  mus.reserve(levels.size());
  for (const std::string& name : levels) {
    mus.push_back(std::make_unique<Mutex>(name.c_str()));
  }
  for (auto& m : mus) m->lock();
  for (auto it = mus.rbegin(); it != mus.rend(); ++it) (*it)->unlock();
  EXPECT_TRUE(captured().empty())
      << "documented hierarchy is internally inconsistent: "
      << captured().front().to_string();
  EXPECT_GE(lock_order::stats().order_edges, levels.size() - 1);

  // And the reverse of any adjacent pair must now be flagged.
  {
    MutexLock inner(*mus[1]);
    MutexLock outer(*mus[0]);
  }
  EXPECT_EQ(captured().size(), 1u);
}

TEST(LockOrderMutex, NamesAreExposed) {
  Mutex m("test.named");
  EXPECT_STREQ(m.name(), "test.named");
}

}  // namespace
