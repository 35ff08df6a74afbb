// Unit coverage of the parallel runtime's building blocks: the persistent
// ThreadPool (phase queues, followers-after-queues ordering, caller
// participation, env-sized defaults), the ExchangeQueue (MPSC batch
// transfer, drain protocol, liveness-gated bound), and the
// morsel-granular NodeLocalKernel (morselized execution must equal
// whole-fragment ExecuteNodeLocal). The end-to-end determinism story —
// threaded == simulate == serial — lives in serial_parallel_oracle_test.

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/algebra/parser.h"
#include "src/algebra/physical_plan.h"
#include "src/common/str_util.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_util.h"

namespace txmod::parallel {
namespace {

using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryQueueTaskAndFollower) {
  ThreadPool pool(3);
  std::atomic<int> tasks_run{0};
  std::atomic<int> tasks_at_first_follower{-1};
  PhasePlan plan;
  plan.queues.resize(4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (int m = 0; m < 8; ++m) {
      plan.queues[s].push_back([&tasks_run] { ++tasks_run; });
    }
  }
  // Followers run only after every queue task has been *dequeued*, not
  // finished: each of the other participants may still be inside the
  // last task it took, so the first follower sees at least all but
  // (participants - 1) of the 32 tasks done.
  plan.followers.push_back([&] {
    int expected = -1;
    tasks_at_first_follower.compare_exchange_strong(expected,
                                                    tasks_run.load());
  });
  pool.Run(std::move(plan));
  const int participants = static_cast<int>(pool.workers()) + 1;
  EXPECT_EQ(tasks_run.load(), 32);
  EXPECT_GE(tasks_at_first_follower.load(), 32 - (participants - 1));
}

TEST(ThreadPoolTest, FollowerRunsWhileAQueueTaskIsStillRunning) {
  // Why the contract says "dequeued": a queue task that waits on a
  // follower (a producer blocked on a full exchange queue whose consumer
  // is a follower) must not keep the follower from starting. With one
  // worker and the caller, whichever participant takes the queue task
  // blocks in it; the other one must run the follower that releases it.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  PhasePlan plan;
  plan.queues.resize(1);
  plan.queues[0].push_back([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return released; });
  });
  plan.followers.push_back([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  });
  pool.Run(std::move(plan));
  EXPECT_TRUE(released);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsEverythingOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  PhasePlan plan;
  plan.queues.resize(2);
  for (std::size_t s = 0; s < 2; ++s) {
    plan.queues[s].push_back(
        [&seen] { seen.push_back(std::this_thread::get_id()); });
  }
  plan.followers.push_back(
      [&seen] { seen.push_back(std::this_thread::get_id()); });
  pool.Run(std::move(plan));
  ASSERT_EQ(seen.size(), 3u);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, StealingDrainsImbalancedQueuesForAnySeed) {
  ThreadPool pool(4);
  for (uint64_t seed : {0ull, 1ull, 7ull, 424243ull}) {
    std::atomic<int> sum{0};
    PhasePlan plan;
    plan.steal_seed = seed;
    // All work piled on one shard's queue: every other participant can
    // make progress only by stealing.
    plan.queues.resize(5);
    for (int m = 1; m <= 100; ++m) {
      plan.queues[0].push_back([&sum, m] { sum += m; });
    }
    pool.Run(std::move(plan));
    EXPECT_EQ(sum.load(), 5050) << "seed " << seed;
  }
}

TEST(ThreadPoolTest, SequentialRunsReuseTheSamePool) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    PhasePlan plan;
    plan.queues.resize(3);
    for (std::size_t s = 0; s < 3; ++s) {
      plan.queues[s].push_back([&count] { ++count; });
    }
    pool.Run(std::move(plan));
    ASSERT_EQ(count.load(), 3) << "round " << round;
  }
}

TEST(ThreadPoolTest, DefaultWorkerCountHonorsEnvOverride) {
  ::setenv("TXMOD_PARALLEL_WORKERS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultWorkerCount(), 3u);
  ::setenv("TXMOD_PARALLEL_WORKERS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1u);
  ::unsetenv("TXMOD_PARALLEL_WORKERS");
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1u);
}

// ---------------------------------------------------------------------------
// ExchangeQueue.
// ---------------------------------------------------------------------------

std::vector<Tuple> IntBatch(int lo, int hi) {
  std::vector<Tuple> batch;
  for (int i = lo; i < hi; ++i) batch.push_back(Tuple({Value::Int(i)}));
  return batch;
}

TEST(ExchangeQueueTest, TransfersEveryBatchFromManyProducers) {
  const std::size_t kProducers = 4;
  ExchangeQueue q(/*capacity_batches=*/2, kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int b = 0; b < 10; ++b) {
        const int base = static_cast<int>(p) * 1000 + b * 10;
        q.Push(IntBatch(base, base + 10));
      }
      q.ProducerDone();
    });
  }
  std::set<int64_t> received;
  std::vector<Tuple> batch;
  while (q.Pop(&batch)) {
    for (const Tuple& t : batch) received.insert(t.at(0).as_int());
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(received.size(), kProducers * 100);
  EXPECT_EQ(q.batches(), kProducers * 10);
}

TEST(ExchangeQueueTest, PopReturnsFalseOnceProducersAreDone) {
  ExchangeQueue q(/*capacity_batches=*/4, /*producers=*/1);
  q.Push(IntBatch(0, 3));
  q.ProducerDone();
  std::vector<Tuple> batch;
  ASSERT_TRUE(q.Pop(&batch));
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_FALSE(q.Pop(&batch));
}

TEST(ExchangeQueueTest, BoundIsSoftUntilConsumerIsLive) {
  // Before the first Pop there is no guarantee any thread will ever
  // drain the queue, so Push must not block on the capacity bound — a
  // narrow pool's only thread may be mid-producer-task. Five pushes
  // through a capacity-1 queue on a single thread would deadlock under a
  // hard bound; under the soft bound they complete immediately.
  ExchangeQueue q(/*capacity_batches=*/1, /*producers=*/1);
  for (int b = 0; b < 5; ++b) q.Push(IntBatch(b, b + 1));
  q.ProducerDone();
  std::vector<Tuple> batch;
  int popped = 0;
  while (q.Pop(&batch)) ++popped;
  EXPECT_EQ(popped, 5);
  EXPECT_EQ(q.batches(), 5u);
}

// ---------------------------------------------------------------------------
// NodeLocalKernel: morselized execution == whole-fragment execution.
// ---------------------------------------------------------------------------

/// Runs `node` over `left` (and `right`, or the fragment indexes of
/// `probe`) once via ExecuteNodeLocal and once morselized through
/// NodeLocalKernel with the given morsel size; both result sets must be
/// identical.
void ExpectMorselsMatchWholeFragment(
    const algebra::PhysicalNode& node, const Relation& left,
    const Relation* right, std::size_t morsel_tuples,
    const algebra::FragmentProbe* probe = nullptr) {
  SCOPED_TRACE(StrCat("morsel_tuples=", morsel_tuples));
  algebra::EvalStats whole_stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation whole,
      algebra::ExecuteNodeLocal(node, left, right, &whole_stats, probe));

  algebra::EvalStats kernel_stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      algebra::NodeLocalKernel kernel,
      algebra::NodeLocalKernel::Prepare(node, left.schema_ptr(), right,
                                        &kernel_stats, probe));
  std::vector<const Tuple*> input;
  for (const Tuple& t : left) input.push_back(&t);
  Relation merged(kernel.output_schema());
  for (std::size_t off = 0; off < input.size(); off += morsel_tuples) {
    const std::size_t count = std::min(morsel_tuples, input.size() - off);
    std::vector<Tuple> out;
    TXMOD_ASSERT_OK(
        kernel.RunMorsel(input.data() + off, count, &out, &kernel_stats));
    for (Tuple& t : out) merged.Insert(std::move(t));
  }
  EXPECT_EQ(merged.size(), whole.size());
  for (const Tuple& t : whole) {
    EXPECT_TRUE(merged.Contains(t)) << "missing from morselized result";
  }
  EXPECT_EQ(kernel_stats.index_probes, whole_stats.index_probes);
}

/// `rel` dealt round-robin into `n` fragments, each indexed on `attrs`.
std::vector<Relation> IndexedFragments(const Relation& rel, std::size_t n,
                                       const std::vector<int>& attrs) {
  std::vector<Relation> frags;
  frags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frags.emplace_back(rel.schema_ptr()).IndexOn(attrs);
  }
  std::size_t i = 0;
  for (const Tuple& t : rel) frags[i++ % n].Insert(t);
  return frags;
}

class NodeLocalKernelTest : public ::testing::Test {
 protected:
  NodeLocalKernelTest() : db_(MakeBeerDatabase()), parser_(&db_.schema()) {
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
    AddBrewery(&db_, "guinness", "dublin", "ie");
    for (int i = 0; i < 23; ++i) {
      AddBeer(&db_, StrCat("beer", i), "lager",
              i % 2 == 0 ? "heineken" : "guinness", 3.0 + (i % 7));
    }
  }

  /// Compiles `expr` and returns its root node (kept alive in plans_),
  /// or nullptr on a parse/compile failure (already reported to gtest).
  const algebra::PhysicalNode* Root(const std::string& expr) {
    auto txn = parser_.ParseTransaction(StrCat("tmp := ", expr, ";"));
    if (!txn.ok()) {
      ADD_FAILURE() << txn.status().ToString();
      return nullptr;
    }
    auto plan = algebra::PhysicalPlan::Compile(
        *txn->program.statements[0].expr);
    if (!plan.ok()) {
      ADD_FAILURE() << plan.status().ToString();
      return nullptr;
    }
    exprs_.push_back(std::move(txn->program.statements[0].expr));
    plans_.push_back(
        std::make_unique<algebra::PhysicalPlan>(std::move(plan).value()));
    return &plans_.back()->root();
  }

  const Relation& Rel(const std::string& name) { return **db_.Find(name); }

  Database db_;
  algebra::AlgebraParser parser_;
  std::vector<algebra::RelExprPtr> exprs_;
  std::vector<std::unique_ptr<algebra::PhysicalPlan>> plans_;
};

TEST_F(NodeLocalKernelTest, SelectMatchesForEveryMorselSize) {
  const algebra::PhysicalNode* n = Root("select[alcohol > 5](beer)");
  ASSERT_NE(n, nullptr);
  for (std::size_t m : {1u, 3u, 7u, 100u}) {
    ExpectMorselsMatchWholeFragment(*n, Rel("beer"), nullptr, m);
  }
}

TEST_F(NodeLocalKernelTest, ProjectMatches) {
  const algebra::PhysicalNode* n = Root("project[name, alcohol](beer)");
  ASSERT_NE(n, nullptr);
  ExpectMorselsMatchWholeFragment(*n, Rel("beer"), nullptr, 4);
}

TEST_F(NodeLocalKernelTest, HashJoinBuildsOncePerFragment) {
  const algebra::PhysicalNode* n =
      Root("join[l.brewery = r.name](beer, brewery)");
  ASSERT_NE(n, nullptr);
  ASSERT_FALSE(n->right_keys.empty()) << "expected an equality join";
  ExpectMorselsMatchWholeFragment(*n, Rel("beer"), &Rel("brewery"), 5);
}

TEST_F(NodeLocalKernelTest, IndexedSetOpProbesEveryFragmentInPlace) {
  const algebra::PhysicalNode* n =
      Root("diff(project[brewery](beer), project[name](brewery))");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->op, algebra::PhysOpKind::kIndexSetOp);
  AddBrewery(&db_, "plzen", "pilsen", "cz");  // unreferenced
  AddBeer(&db_, "stray", "ale", "nowhere", 5.0);  // dangling
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation left, algebra::ExecuteNodeLocal(n->child(0), Rel("beer"),
                                               nullptr));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation members,
      algebra::ExecuteNodeLocal(n->child(1), Rel("brewery"), nullptr));
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation expected,
                             algebra::ExecuteNodeLocal(*n, left, &members));
  ASSERT_EQ(expected.size(), 1u);  // nowhere

  const std::vector<Relation> frags =
      IndexedFragments(Rel("brewery"), 3, n->setop_attrs);
  algebra::FragmentProbe probe;
  for (const Relation& f : frags) {
    probe.views.push_back(f.FindIndexView(n->setop_attrs));
  }
  probe.schema = Rel("brewery").schema_ptr();
  algebra::EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation probed,
      algebra::ExecuteNodeLocal(*n, left, nullptr, &stats, &probe));
  EXPECT_TRUE(probed.SameTuples(expected));
  EXPECT_EQ(stats.tuples_scanned, left.size());  // brewery is not scanned
  EXPECT_GE(stats.index_probes, left.size());
  for (std::size_t m : {1u, 2u, 100u}) {
    ExpectMorselsMatchWholeFragment(*n, left, nullptr, m, &probe);
  }
}

TEST_F(NodeLocalKernelTest, IndexLookupJoinStreamsTheDeltaThroughAFragment) {
  const algebra::PhysicalNode* n = Root(
      "semijoin[l.brewery = r.0](beer, {(\"heineken\"), (\"nowhere\")})");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->op, algebra::PhysOpKind::kIndexLookupJoin);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation delta,
                             algebra::MaterializeLiteral(*n->child(1).logical));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation expected, algebra::ExecuteNodeLocal(*n, Rel("beer"), &delta));
  ASSERT_FALSE(expected.empty());

  // Each fragment streams the (broadcast) delta through its own index;
  // together they find every match, and no beer tuple is scanned.
  const std::vector<Relation> frags =
      IndexedFragments(Rel("beer"), 3, n->left_keys);
  Relation found(expected.schema_ptr());
  for (const Relation& f : frags) {
    algebra::FragmentProbe probe;
    probe.views.push_back(f.FindIndexView(n->left_keys));
    probe.schema = f.schema_ptr();
    algebra::EvalStats stats;
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation part,
        algebra::ExecuteNodeLocal(*n, delta, nullptr, &stats, &probe));
    EXPECT_EQ(stats.tuples_scanned, delta.size());
    EXPECT_EQ(stats.index_probes, delta.size());
    for (const Tuple& t : part) {
      EXPECT_TRUE(f.Contains(t));
      found.Insert(t);
    }
    for (std::size_t m : {1u, 5u}) {
      ExpectMorselsMatchWholeFragment(*n, delta, nullptr, m, &probe);
    }
  }
  EXPECT_TRUE(found.SameTuples(expected));
}

}  // namespace
}  // namespace txmod::parallel
