// Serving subsystem tests: the InferenceSession's no-tape forward must be
// bitwise identical to the training model's tape eval forward for every
// DP-attention variant and ablation; batched/subset queries must match full
// forwards; the micro-batcher must coalesce queued requests without
// changing any answer; the JSON lines codec must accept exactly the request
// schema.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/serve/batcher.h"
#include "src/serve/engine.h"
#include "src/serve/jsonl.h"
#include "src/serve/metrics.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

Dataset Tiny(uint64_t seed = 5) {
  DsbmConfig config;
  config.num_nodes = 60;
  config.num_classes = 3;
  config.avg_out_degree = 4.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

struct SessionFixture {
  Dataset dataset;
  ModelPtr model;
  Checkpoint checkpoint;
  Matrix eval_logits;

  SessionFixture(ModelConfig config, uint64_t seed = 21)
      : dataset(Tiny(seed)) {
    Rng rng(seed);
    model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
    eval_logits = model->Forward(/*training=*/false, &rng).value();
    checkpoint =
        MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());
  }

  serve::InferenceSession Session(
      const serve::EngineOptions& options = {}) const {
    Result<serve::InferenceSession> session =
        serve::InferenceSession::Create(checkpoint, dataset, options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return std::move(*session);
  }
};

ModelConfig SmallConfig() {
  ModelConfig config;
  config.hidden = 16;
  config.dropout = 0.4f;  // must be elided in eval — the parity proves it
  return config;
}

TEST(InferenceSessionTest, MatchesEvalForwardBitwiseForEveryVariant) {
  for (DpAttention variant :
       {DpAttention::kOriginal, DpAttention::kGate, DpAttention::kRecursive,
        DpAttention::kJk}) {
    ModelConfig config = SmallConfig();
    config.dp_attention = variant;
    SessionFixture fixture(config);
    serve::InferenceSession session = fixture.Session();
    EXPECT_TRUE(BitwiseEqual(session.ForwardAll(), fixture.eval_logits))
        << "variant " << static_cast<int>(variant)
        << " diverged from the training-path eval forward";
  }
}

TEST(InferenceSessionTest, MatchesEvalForwardForAblations) {
  {
    ModelConfig config = SmallConfig();
    config.use_dp_attention = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.use_hop_attention = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.initial_residual = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.propagation_steps = 1;  // hop attention degenerates
    config.num_layers = 3;         // deeper classifier head
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
}

TEST(InferenceSessionTest, ForwardRowsEqualsFullForwardRows) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  const std::vector<int64_t> nodes = {5, 0, 17, 5, 59};
  Result<Matrix> subset = session.ForwardRows(nodes);
  ASSERT_TRUE(subset.ok());
  ASSERT_EQ(subset->rows(), static_cast<int64_t>(nodes.size()));
  const Matrix full = session.ForwardAll();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int64_t c = 0; c < full.cols(); ++c) {
      EXPECT_EQ(subset->At(static_cast<int64_t>(i), c),
                full.At(nodes[i], c))
          << "row " << i << " (node " << nodes[i] << ") col " << c;
    }
  }
}

// Recursive DP attention rebuilds its two-block concat list at every step
// in the per-thread scratch; a second ForwardRows reuses that list and must
// still give the tape eval forward's rows bit for bit.
TEST(InferenceSessionTest, RecursiveForwardRowsRepeatsTapeEvalRows) {
  ModelConfig config = SmallConfig();
  config.dp_attention = DpAttention::kRecursive;
  SessionFixture fixture(config);
  serve::InferenceSession session = fixture.Session();
  const std::vector<int64_t> nodes = {3, 41, 0, 3, 59};
  const Matrix& expected = fixture.eval_logits;
  for (int pass = 0; pass < 2; ++pass) {
    Result<Matrix> rows = session.ForwardRows(nodes);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows(), static_cast<int64_t>(nodes.size()));
    ASSERT_EQ(rows->cols(), expected.cols());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(std::memcmp(rows->Row(static_cast<int64_t>(i)),
                            expected.Row(nodes[i]),
                            static_cast<size_t>(expected.cols()) *
                                sizeof(float)),
                0)
          << "pass " << pass << " row " << i << " (node " << nodes[i] << ")";
    }
  }
}

TEST(InferenceSessionTest, RejectsBadInputs) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  EXPECT_FALSE(session.ForwardRows({}).ok());
  EXPECT_FALSE(session.ForwardRows({-1}).ok());
  EXPECT_FALSE(session.ForwardRows({session.num_nodes()}).ok());

  // Wrong dataset: content hash must protect the deployment.
  Dataset other = Tiny(99);
  Result<serve::InferenceSession> mismatch =
      serve::InferenceSession::Create(fixture.checkpoint, other);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);

  // Tensors that do not fit the model the config builds: a Status, never
  // an abort.
  Checkpoint truncated = fixture.checkpoint;
  truncated.tensors.pop_back();
  Checkpoint extra = fixture.checkpoint;
  extra.tensors.push_back(extra.tensors.back());
  Checkpoint misshapen = fixture.checkpoint;
  misshapen.tensors[0].value = Matrix(misshapen.tensors[0].value.rows() + 1,
                                      misshapen.tensors[0].value.cols());
  Checkpoint wrong_hidden = fixture.checkpoint;
  wrong_hidden.model_config.hidden += 1;
  for (const Checkpoint* broken :
       {&truncated, &extra, &misshapen, &wrong_hidden}) {
    EXPECT_FALSE(
        serve::InferenceSession::Create(*broken, fixture.dataset).ok());
  }
}

TEST(InferenceSessionTest, PropagationCacheHitReproducesResults) {
  SessionFixture fixture(SmallConfig());
  serve::EngineOptions options;
  options.propagation_cache_path =
      testing::TempDir() + "/serve_propagation.cache";
  std::remove(options.propagation_cache_path.c_str());  // stale previous run
  serve::InferenceSession first = fixture.Session(options);
  EXPECT_FALSE(first.used_propagation_cache()) << "first run must miss";
  serve::InferenceSession second = fixture.Session(options);
  EXPECT_TRUE(second.used_propagation_cache()) << "second run must hit";
  EXPECT_TRUE(BitwiseEqual(second.ForwardAll(), fixture.eval_logits));
}

/// Ground truth for batcher tests: each query classified on its own.
std::vector<std::vector<int64_t>> ClassifyEach(
    const serve::InferenceSession& session,
    const std::vector<std::vector<int64_t>>& queries) {
  std::vector<std::vector<int64_t>> expected;
  for (const auto& nodes : queries) {
    expected.push_back(std::move(session.Classify(nodes)).value());
  }
  return expected;
}

/// Adds every query, answers them in one call, and checks the answers
/// against `expected`.
void ExpectAnswers(serve::MicroBatcher* batcher,
                   const serve::InferenceSession& session,
                   const std::vector<std::vector<int64_t>>& queries,
                   const std::vector<std::vector<int64_t>>& expected) {
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batcher->Add(queries[q]), static_cast<int64_t>(q));
  }
  const serve::Answers answers = batcher->AnswerAll(&session);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(answers[q].ok()) << "query " << q;
    EXPECT_EQ(*answers[q], expected[q]) << "query " << q;
  }
}

TEST(MicroBatcherTest, CoalescesConcurrentClientsWithoutChangingAnswers) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics);

  // Four clients' queries interleave in arrival order, as the event loop
  // adds them when several connections are readable in one wakeup. Two
  // such wakeups, six queries each.
  const std::vector<std::vector<int64_t>> queries = {
      {0, 1, 2}, {3}, {4, 5}, {6, 7, 8, 9}, {10}, {11, 12},
      {13}, {14, 15}, {16, 17, 18}, {19}, {0, 19}, {7}};
  const std::vector<std::vector<int64_t>> expected =
      ClassifyEach(session, queries);
  for (size_t wave = 0; wave < 2; ++wave) {
    const auto from = static_cast<std::ptrdiff_t>(wave * 6);
    ExpectAnswers(
        &batcher, session,
        {queries.begin() + from, queries.begin() + from + 6},
        {expected.begin() + from, expected.begin() + from + 6});
  }

  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  uint64_t total_nodes = 0;
  for (const auto& nodes : queries) total_nodes += nodes.size();
  EXPECT_EQ(snapshot.requests, queries.size());
  EXPECT_EQ(snapshot.errors, 0u);
  EXPECT_EQ(snapshot.nodes, total_nodes);
  EXPECT_EQ(snapshot.batches, 2u) << "one forward per wakeup";
  EXPECT_EQ(snapshot.mean_batch_requests, 6.0);
  EXPECT_EQ(snapshot.max_queue_depth, 6) << "the queue empties per call";
}

TEST(MicroBatcherTest, MaxBatchNodesSplitsTheQueueWithoutChangingAnswers) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options options;
  options.max_batch_nodes = 4;
  serve::MicroBatcher batcher(&metrics, options);

  // Greedy in Add order under a 4-node cap: {0,1,2}+{3} | {4,5} |
  // {6,7,8,9} | {10}+{11,12}.
  const std::vector<std::vector<int64_t>> queries = {
      {0, 1, 2}, {3}, {4, 5}, {6, 7, 8, 9}, {10}, {11, 12}};
  ExpectAnswers(&batcher, session, queries, ClassifyEach(session, queries));

  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests, queries.size());
  EXPECT_EQ(snapshot.errors, 0u);
  EXPECT_EQ(snapshot.nodes, 13u);
  EXPECT_EQ(snapshot.batches, 4u);
}

TEST(MicroBatcherTest, RequestLargerThanTheCapStillRunsAlone) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options options;
  options.max_batch_nodes = 2;
  serve::MicroBatcher batcher(&metrics, options);

  // The 5-node request exceeds the cap on its own: it is neither split nor
  // refused, it gets a forward to itself.
  const std::vector<std::vector<int64_t>> queries = {
      {0}, {1, 2, 3, 4, 5}, {6}};
  ExpectAnswers(&batcher, session, queries, ClassifyEach(session, queries));

  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests, 3u);
  EXPECT_EQ(snapshot.nodes, 7u);
  EXPECT_EQ(snapshot.batches, 3u);
  EXPECT_EQ(snapshot.mean_batch_requests, 1.0);
}

TEST(MicroBatcherTest, ErrorsStayPerRequest) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::MicroBatcher batcher(/*metrics=*/nullptr);
  batcher.Add({0, 1});
  batcher.Add({session.num_nodes() + 5});
  batcher.Add({2});
  const serve::Answers answers = batcher.AnswerAll(&session);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].ok());
  EXPECT_FALSE(answers[1].ok());
  EXPECT_TRUE(answers[2].ok())
      << "a bad batch mate must not poison this request";
}

TEST(MicroBatcherTest, FullQueueRejectsWithRetryableOverloadError) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options options;
  options.max_queue_depth = 1;
  serve::MicroBatcher batcher(&metrics, options);

  batcher.Add({0});
  batcher.Add({1});  // queue already at its ceiling
  const serve::Answers answers = batcher.AnswerAll(&session);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].ok())
      << "the request that made it into the queue must still be served";
  ASSERT_FALSE(answers[1].ok());
  EXPECT_EQ(answers[1].status().code(), StatusCode::kUnavailable)
      << "queue-full must be the retryable overload code, got "
      << answers[1].status().ToString();
  EXPECT_EQ(answers[1].status().message(),
            "queue full (1 requests pending); retry with backoff");
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.rejected, 1u);
  EXPECT_EQ(snapshot.shed, 0u);
  EXPECT_EQ(snapshot.requests, 2u);
  EXPECT_EQ(snapshot.errors, 1u);

  // Answering empties the queue, so the next request fits again.
  batcher.Add({1});
  EXPECT_TRUE(batcher.AnswerAll(&session)[0].ok());
}

TEST(MicroBatcherTest, ExpiredDeadlineShedsInsteadOfServingStale) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics);

  batcher.Add({0, 1}, /*deadline_ms=*/1);
  batcher.Add({2}, /*deadline_ms=*/600000);
  batcher.Add({3});  // 0 = no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const serve::Answers answers = batcher.AnswerAll(&session);

  ASSERT_EQ(answers.size(), 3u);
  ASSERT_FALSE(answers[0].ok());
  EXPECT_EQ(answers[0].status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(answers[0].status().message(),
            "deadline exceeded after 1 ms in queue; retry with backoff");
  EXPECT_TRUE(answers[1].ok());
  EXPECT_TRUE(answers[2].ok());
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.rejected, 0u);
}

TEST(MicroBatcherTest, AllShedQueueStillAnswersEveryRequest) {
  // A call that sheds its whole queue runs no forward but still returns a
  // result for every request, and leaves the batcher empty.
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics);
  batcher.Add({0}, /*deadline_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const serve::Answers answers = batcher.AnswerAll(&session);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_FALSE(answers[0].ok());
  EXPECT_EQ(metrics.Snapshot().batches, 0u);
  EXPECT_TRUE(batcher.AnswerAll(&session).empty());
}

TEST(MicroBatcherTest, FormatReplyPicksTheShapeFromTheAnswer) {
  const serve::Answers answers = {
      std::vector<int64_t>{1, 0},
      Status::Unavailable("queue full"),
      Status::OutOfRange("node 99 out of range")};
  serve::PendingReply reply;
  reply.id = 4;
  reply.answer = 0;
  EXPECT_EQ(serve::FormatReply(reply, answers),
            serve::FormatClassesReply(4, {1, 0}));
  reply.answer = 1;
  EXPECT_EQ(serve::FormatReply(reply, answers),
            serve::FormatOverloadedReply(4, "queue full"));
  reply.answer = 2;
  EXPECT_EQ(serve::FormatReply(reply, answers),
            serve::FormatErrorReply(4, "node 99 out of range"));
  serve::PendingReply immediate;
  immediate.immediate = serve::FormatErrorReply(-1, "bad line");
  EXPECT_EQ(serve::FormatReply(immediate, answers), immediate.immediate);
}

TEST(ServeMetricsTest, LatencyMemoryIsBoundedButStatsStayRepresentative) {
  // Far more requests than the reservoir holds: the mean must stay exact
  // (running sum) and the sampled percentiles representative of the whole
  // 1..100 ms stream, not just a recent window.
  serve::ServeMetrics metrics;
  constexpr size_t kTotal = 12800;  // > 3x kLatencyReservoirCapacity
  static_assert(kTotal > 3 * serve::ServeMetrics::kLatencyReservoirCapacity,
                "test must overflow the reservoir");
  for (size_t i = 0; i < kTotal; ++i) {
    metrics.RecordRequest(static_cast<double>(i % 100) + 1.0, 1, true);
  }
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests, kTotal);
  EXPECT_NEAR(snapshot.mean_latency_ms, 50.5, 1e-9);
  EXPECT_NEAR(snapshot.p50_latency_ms, 50.0, 10.0);
  EXPECT_NEAR(snapshot.p99_latency_ms, 99.0, 5.0);
  EXPECT_GT(snapshot.p99_latency_ms, snapshot.p50_latency_ms);
}

TEST(ServeMetricsTest, PercentilesUseNearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(serve::Percentile(values, 50.0), 50.0);
  EXPECT_EQ(serve::Percentile(values, 99.0), 99.0);
  EXPECT_EQ(serve::Percentile(values, 100.0), 100.0);
  EXPECT_EQ(serve::Percentile(values, 0.0), 1.0);
  EXPECT_EQ(serve::Percentile({}, 50.0), 0.0);
}

TEST(JsonlTest, ParsesTheRequestSchema) {
  Result<serve::ServeRequest> request =
      serve::ParseRequestLine(R"({"id": 7, "nodes": [0, 12, 3]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, 7);
  EXPECT_EQ(request->nodes, (std::vector<int64_t>{0, 12, 3}));

  // Key order is free; empty arrays and negative ids are legal JSON here.
  request = serve::ParseRequestLine(R"({"nodes":[],"id":-2})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, -2);
  EXPECT_TRUE(request->nodes.empty());
}

TEST(JsonlTest, RejectsEverythingOutsideTheSchema) {
  const char* bad[] = {
      "",
      "not json",
      "{}",
      R"({"id": 1})",
      R"({"nodes": [1]})",
      R"({"id": 1, "nodes": [1], "extra": 2})",
      R"({"id": 1, "id": 2, "nodes": []})",
      R"({"id": 1, "nodes": [1,]})",
      R"({"id": 1, "nodes": [1]} trailing)",
      R"({"id": 99999999999999999999, "nodes": []})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::ParseRequestLine(line).ok())
        << "accepted: " << line;
  }
  // The node-count ceiling must bound the array before building it.
  EXPECT_FALSE(
      serve::ParseRequestLine(R"({"id":1,"nodes":[1,2,3]})", 2).ok());
}

TEST(JsonlTest, FormatsRepliesWithEscaping) {
  EXPECT_EQ(serve::FormatClassesReply(7, {1, 0, 2}),
            R"({"id":7,"classes":[1,0,2]})");
  EXPECT_EQ(serve::FormatClassesReply(-1, {}), R"({"id":-1,"classes":[]})");
  EXPECT_EQ(serve::FormatErrorReply(3, "bad \"node\"\n"),
            R"({"id":3,"error":"bad \"node\"\n"})");
}

TEST(JsonlTest, ParsesOptionalDeadline) {
  Result<serve::ServeRequest> request = serve::ParseRequestLine(
      R"({"id": 7, "nodes": [1], "deadline_ms": 50})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->deadline_ms, 50);

  request = serve::ParseRequestLine(R"({"deadline_ms":0,"id":1,"nodes":[]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->deadline_ms, 0);

  // Absent key means no deadline.
  request = serve::ParseRequestLine(R"({"id":1,"nodes":[2]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->deadline_ms, 0);

  EXPECT_FALSE(serve::ParseRequestLine(
                   R"({"id":1,"nodes":[],"deadline_ms":-5})")
                   .ok());
  EXPECT_FALSE(serve::ParseRequestLine(
                   R"({"id":1,"nodes":[],"deadline_ms":1,"deadline_ms":2})")
                   .ok());
}

TEST(JsonlTest, FormatsTheStructuredOverloadReply) {
  EXPECT_EQ(serve::FormatOverloadedReply(9, "queue full"),
            R"({"id":9,"error":"overloaded","detail":"queue full"})");
  EXPECT_EQ(serve::FormatOverloadedReply(-1, "say \"later\"\n"),
            R"({"id":-1,"error":"overloaded","detail":"say \"later\"\n"})");
}

}  // namespace
}  // namespace adpa
