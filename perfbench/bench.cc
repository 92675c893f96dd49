// perfbench — the repository benchmark: the paper's pipeline as a user runs
// it (generate, AMUD, DP selection, Eq. 9, training, checkpoint, serving
// session) followed by open-loop serving of the trained checkpoint over TCP.
// README.md in this directory explains the workloads and every metric.
//
//   perfbench --workload=train_directed --seed=1 --seconds=40 --trace=0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace=0 reports the end-to-end
// metrics, --trace=1 the per-layer ones (and writes the spans to
// --trace_dir). Every output check that fails counts as a failed operation.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "src/amud/amud.h"
#include "src/core/flags.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/net/server.h"
#include "src/serve/engine.h"
#include "src/serve/hot_swap.h"
#include "src/serve/metrics.h"
#include "src/tensor/autograd.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/simd.h"
#include "src/tensor/tape_analysis.h"
#include "src/train/trainer.h"
#include "trace.h"

namespace perfbench {
namespace {

using adpa::Checkpoint;
using adpa::Dataset;
using adpa::DirectedPattern;
using adpa::Matrix;
using adpa::ModelConfig;
using adpa::ModelPtr;
using adpa::Result;
using adpa::Rng;
using adpa::TrainConfig;
using adpa::TrainResult;

/// One workload: the graph the pipeline runs on, how many full pipeline
/// passes a run makes, and whether an untraced run steps the ladder of
/// offered rates (a traced run always does). Serving takes the rest of
/// --seconds. README.md gives the reason for each.
struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  int passes;
  bool ladder;
};

constexpr Workload kWorkloads[] = {
    {"train_directed", "Chameleon", 5.0, 5, false},
    {"amud_undirected", "Tolokers", 3.0, 4, false},
    {"serve_tcp", "Chameleon", 5.0, 3, true},
};

constexpr int kPipelineThreads = 2;  // kernel threads of the pipeline passes
constexpr int kServeThreads = 1;     // kernel threads of the server
constexpr int kEpochs = 20;
constexpr int kMaxPatternOrder = 2;
constexpr int kKeepPatterns = 4;
constexpr int kNodesPerQuery = 8;
constexpr int kQueryPool = 1024;
constexpr int kQueryConnections = 3;  // plus one admin connection for reloads
// Serving phases. The reference rate sits well below the knee of every
// workload (8k-20k qps on Chameleon x5 with one kernel thread), where almost
// every request is served in a batch of its own (`batch_requests_mean` is
// 1.0-1.3), so the event loop's CPU time per query measures the path of a
// single request.
constexpr double kWarmupS = 0.2;
constexpr double kReferenceQps = 6000.0;
constexpr double kMinReferenceS = 4.0;
constexpr double kWindowS = 0.5;
// The ladder of offered rates: coarse steps from kLadderStartQps until
// kMaxMisses rungs in a row miss the service level (a short stall can fail
// one rung below the knee) or one saturates, then fine steps above the best
// coarse rung. Each rung gets a fresh server and lasts kRungS. The search
// stops at the first saturated rung, so no rung runs more than kCoarseStep
// above one that kept up, and the backlog of a saturated rung stays below the
// batcher's default queue depth (4096): nothing is refused.
constexpr double kLadderStartQps = 2000.0;
constexpr double kLadderMaxQps = 32000.0;
constexpr double kCoarseStep = 1.25;
constexpr double kFineStep = 1.06;
constexpr int kFineRungs = 3;
constexpr int kMaxMisses = 2;
constexpr double kRungS = 0.25;
// A rung meets the service level when every request is answered and the
// median latency is at most kSloP50Ms; a backlog that grows through the rung
// pushes the median far past it. A rung whose achieved rate falls below
// kSaturated of the offered one is saturated.
constexpr double kSloP50Ms = 1.0;
constexpr double kSaturated = 0.97;
// Reloads of the checkpoint, spaced far enough apart that one finishes
// before the next is due, while queries run at kReloadPhaseQps; the queries
// take about a tenth of the event loop's CPU time in the phase.
constexpr int kReloads = 12;
constexpr double kReloadSpacingS = 0.25;
constexpr double kReloadPhaseQps = 200.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time (user + system) of the whole process so far, in seconds. Time
/// the host steals from a vCPU is not in it, which makes it the steady
/// measure of work on a shared host; wall time is reported beside it.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// Keeps the memory the library frees inside the process: no block gets an
/// mmap of its own and the heap is never trimmed on its own. With glibc's
/// defaults every large matrix a pass frees goes back to the kernel and the
/// next pass faults it in again, page by page: about 2.5 million page faults
/// and a quarter of a pass's CPU time on amud_undirected, in kernel time whose
/// cost follows the host's memory pressure rather than the program. A
/// long-running process reuses its heap the same way.
void KeepFreedMemory() {
  ADPA_CHECK(mallopt(M_MMAP_MAX, 0) == 1);
  ADPA_CHECK(mallopt(M_TRIM_THRESHOLD, INT_MAX) == 1);
}

/// Minor page faults of the whole process so far.
int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return int64_t(usage.ru_minflt);
}

double ThreadCpuSeconds() {
  timespec cpu{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  return double(cpu.tv_sec) + double(cpu.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it.
double TailPercentile(size_t samples) {
  for (double p : {99.99, 99.9, 99.0, 90.0}) {
    if (double(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

/// Counts operations and failed output checks for the result line.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // how it was measured, for the human-readable lines
};

// ---------------------------------------------------------------------------
// Pipeline pass.

struct PassResult {
  double pipeline_s = 0.0;
  double setup_s = 0.0;
  double train_s = 0.0;
  double pipeline_cpu_s = 0.0;  // process CPU time of the same intervals
  double setup_cpu_s = 0.0;
  double train_cpu_s = 0.0;
  int64_t minor_faults = 0;  // page faults of the whole pass
  TrainResult train;
  Dataset dataset;  // after the AMUD decision
  std::vector<DirectedPattern> patterns;
  Checkpoint checkpoint;  // as loaded back from disk
  int64_t ckpt_bytes = 0;
  int pass_span = -1;
  // Per-epoch layer times of the traced replay, in ms.
  std::vector<double> fwd_ms, bwd_ms, opt_ms, eval_ms;
  int64_t tape_nodes_train = 0;
  int64_t tape_nodes_eval = 0;
};

TrainConfig MakeTrainConfig() {
  TrainConfig config;
  config.max_epochs = kEpochs;
  config.patience = 0;  // a fixed amount of work per pass
  config.record_curves = true;
  return config;
}

double SpanMs(const Tracer& tracer, int id) {
  if (id < 0) return 0.0;
  const Span& s = tracer.spans()[id];
  return double(s.end_ns - s.start_ns) * 1e-6;
}

/// TrainModel's epoch loop, spelled out through the same public calls so
/// each step can be timed. It must end with the same loss and accuracy bits
/// as TrainModel at the same seed and thread count; the caller checks that.
TrainResult ReplayTraining(adpa::Model* model, const Dataset& d,
                           const TrainConfig& config, Rng* rng, Tracer* tracer,
                           PassResult* out) {
  adpa::Adam optimizer(model->Parameters(), config.learning_rate,
                       config.weight_decay);
  TrainResult result;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    ScopedSpan epoch_span(tracer, "epoch", "train");
    double opt_ms = 0.0;
    {
      ScopedSpan s(tracer, "zero_grad", "train");
      optimizer.ZeroGrad();
      tracer->End(s.id());
      opt_ms += SpanMs(*tracer, s.id());
    }
    adpa::ag::Variable loss;
    {
      ScopedSpan s(tracer, "forward", "train");
      adpa::ag::Variable logits = model->Forward(/*training=*/true, rng);
      loss = adpa::ag::MaskedCrossEntropy(logits, d.labels, d.train_idx);
      tracer->End(s.id());
      out->fwd_ms.push_back(SpanMs(*tracer, s.id()));
    }
    if (epoch == 0) {
      ScopedSpan s(tracer, "analyze_tape", "trace");
      out->tape_nodes_train =
          adpa::ag::AnalyzeTape(loss, model->Parameters()).num_nodes;
    }
    {
      ScopedSpan s(tracer, "backward", "train");
      adpa::ag::Backward(loss);
      tracer->End(s.id());
      out->bwd_ms.push_back(SpanMs(*tracer, s.id()));
    }
    {
      ScopedSpan s(tracer, "adam_step", "train");
      optimizer.Step();
      tracer->End(s.id());
      out->opt_ms.push_back(opt_ms + SpanMs(*tracer, s.id()));
    }
    ScopedSpan s(tracer, "eval", "train");
    adpa::ag::Variable eval_logits = model->Forward(/*training=*/false, rng);
    const double val_acc = adpa::Accuracy(eval_logits.value(), d.labels, d.val_idx);
    result.val_curve.push_back(val_acc);
    result.train_loss_curve.push_back(loss.value().At(0, 0));
    result.epochs_run = epoch + 1;
    if (val_acc > result.best_val_accuracy) {
      result.best_val_accuracy = val_acc;
      result.best_epoch = epoch;
      result.test_accuracy =
          adpa::Accuracy(eval_logits.value(), d.labels, d.test_idx);
    }
    tracer->End(s.id());
    out->eval_ms.push_back(SpanMs(*tracer, s.id()));
    if (epoch == 0) {
      ScopedSpan t(tracer, "analyze_tape", "trace");
      out->tape_nodes_eval = adpa::ag::AnalyzeTape(eval_logits).num_nodes;
    }
  }
  return result;
}

/// One pass of the pipeline. `replay` times the epochs step by step instead
/// of calling TrainModel.
PassResult RunPass(const Workload& w, uint64_t seed, const std::string& ckpt_path,
                   bool replay, Tracer* tracer, Ledger* ledger) {
  PassResult r;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t faults0 = MinorFaults();
  ScopedSpan pass(tracer, "pass", "bench");
  r.pass_span = pass.id();

  Result<adpa::BenchmarkSpec> spec = adpa::FindBenchmark(w.dataset);
  ADPA_CHECK(spec.ok()) << spec.status().ToString();
  Result<Dataset> natural = [&] {
    ScopedSpan s(tracer, "generate", "data");
    return adpa::BuildBenchmark(*spec, seed, w.scale);
  }();
  ADPA_CHECK(natural.ok()) << natural.status().ToString();

  Result<adpa::AmudReport> report = [&] {
    ScopedSpan s(tracer, "amud", "amud");
    return adpa::ComputeAmud(natural->graph, natural->labels, natural->num_classes);
  }();
  ADPA_CHECK(report.ok()) << report.status().ToString();
  const bool directed = report->decision == adpa::AmudDecision::kDirected;
  ledger->Check(directed == spec->expect_directed,
                std::string("AMUD decision on ") + w.dataset + " (S = " +
                    std::to_string(report->score) + ")");
  {
    ScopedSpan s(tracer, "apply_amud", "data");
    r.dataset = directed ? std::move(natural).value() : natural->WithUndirectedGraph();
  }
  {
    ScopedSpan s(tracer, "select", "amud");
    Result<std::vector<DirectedPattern>> selected =
        adpa::SelectPatternsByCorrelation(r.dataset.graph, r.dataset.labels,
                                          r.dataset.train_idx, kMaxPatternOrder,
                                          kKeepPatterns);
    ADPA_CHECK(selected.ok()) << selected.status().ToString();
    r.patterns = std::move(selected).value();
  }
  const ModelConfig model_config;  // ADPA defaults: K = 2, hidden 64
  Rng rng(seed);
  ModelPtr model;
  {
    ScopedSpan s(tracer, "propagate", "graph");
    Result<ModelPtr> created = adpa::CreateModelWithPatterns(
        "ADPA", r.dataset, model_config, r.patterns, &rng);
    ADPA_CHECK(created.ok()) << created.status().ToString();
    model = std::move(created).value();
  }
  const Clock::time_point t_setup = Clock::now();
  const double cpu_setup = ProcessCpuSeconds();
  r.setup_s = Seconds(t0, t_setup);
  r.setup_cpu_s = cpu_setup - cpu0;

  const TrainConfig train_config = MakeTrainConfig();
  {
    ScopedSpan s(tracer, "train", "train");
    r.train = replay ? ReplayTraining(model.get(), r.dataset, train_config, &rng,
                                      tracer, &r)
                     : adpa::TrainModel(model.get(), r.dataset, train_config, &rng);
  }
  r.train_s = Seconds(t_setup, Clock::now());
  r.train_cpu_s = ProcessCpuSeconds() - cpu_setup;

  {
    ScopedSpan s(tracer, "ckpt_save", "io");
    const Checkpoint made = adpa::MakeCheckpoint(*model, "ADPA", r.dataset,
                                                 model_config, train_config);
    const adpa::Status saved = adpa::SaveCheckpoint(made, ckpt_path);
    ADPA_CHECK(saved.ok()) << saved.ToString();
  }
  {
    ScopedSpan s(tracer, "ckpt_load", "io");
    Result<Checkpoint> loaded = adpa::TryLoadCheckpoint(ckpt_path);
    ADPA_CHECK(loaded.ok()) << loaded.status().ToString();
    r.checkpoint = std::move(loaded).value();
  }
  Matrix served;
  {
    ScopedSpan s(tracer, "session_create", "serve");
    Result<adpa::serve::InferenceSession> session =
        adpa::serve::InferenceSession::Create(r.checkpoint, r.dataset);
    ADPA_CHECK(session.ok()) << session.status().ToString();
    tracer->End(s.id());
    ScopedSpan f(tracer, "forward_all", "serve");
    served = session->ForwardAll();
  }
  r.pipeline_s = Seconds(t0, Clock::now());
  r.pipeline_cpu_s = ProcessCpuSeconds() - cpu0;
  r.minor_faults = MinorFaults() - faults0;
  tracer->End(pass.id());

  r.ckpt_bytes = int64_t(std::filesystem::file_size(ckpt_path));
  const Matrix eval = model->Forward(/*training=*/false, &rng).value();
  ledger->Check(eval.rows() == served.rows() && eval.cols() == served.cols() &&
                    std::memcmp(eval.data(), served.data(),
                                sizeof(float) * size_t(eval.rows() * eval.cols())) == 0,
                "InferenceSession::ForwardAll equals the trained model's eval Forward");
  return r;
}

bool SameTraining(const TrainResult& a, const TrainResult& b) {
  return a.test_accuracy == b.test_accuracy &&
         a.best_val_accuracy == b.best_val_accuracy && a.best_epoch == b.best_epoch &&
         a.val_curve == b.val_curve && a.train_loss_curve == b.train_loss_curve;
}

// ---------------------------------------------------------------------------
// Per-layer measurements taken outside the pass (traced run only).

struct LayerProbe {
  double propagate_ms = 0.0;
  double spmm_work = 0.0;  // computed: K * sum over patterns of order * nnz * f
  double reach_nnz = 0.0;
  double gemm_gflops = 0.0, gemm_ta_gflops = 0.0, gemm_tb_gflops = 0.0;
  double gemm_flops_per_epoch = 0.0;  // computed
};

template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  fn();  // warm caches and the thread pool
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t = Clock::now();
    fn();
    ms.push_back(Seconds(t, Clock::now()) * 1e3);
  }
  return Median(ms);
}

LayerProbe ProbeLayers(const PassResult& pass, const Dataset& natural,
                       uint64_t seed, Tracer* tracer) {
  LayerProbe p;
  const ModelConfig config;
  const Dataset& d = pass.dataset;
  const int64_t n = d.num_nodes();
  const int64_t f = d.feature_dim();
  const int64_t k = int64_t(pass.patterns.size());
  const int64_t h = config.hidden;
  const int steps = config.propagation_steps;
  {
    ScopedSpan s(tracer, "probe_propagate", "graph");
    int64_t nnz = 0;
    p.propagate_ms = MedianMs(3, [&] {
      adpa::PatternSet patterns(d.graph.AdjacencyMatrix(), config.conv_r,
                                config.propagation_self_loops);
      std::vector<Matrix> states(k, d.features);
      for (int l = 0; l < steps; ++l) patterns.ApplyStep(pass.patterns, &states);
      nnz = patterns.normalized_out().nnz();
    });
    double hops = 0.0;
    for (const DirectedPattern& pattern : pass.patterns) hops += pattern.order();
    p.spmm_work = double(steps) * hops * double(nnz) * double(f);
  }
  {
    ScopedSpan s(tracer, "probe_reachability", "amud");
    adpa::PatternSet patterns(natural.graph.AdjacencyMatrix());
    for (const DirectedPattern& pattern : adpa::SecondOrderPatterns()) {
      p.reach_nnz += double(patterns.Reachability(pattern).nnz());
    }
  }
  {
    ScopedSpan s(tracer, "probe_gemm", "tensor");
    // The DP-fusion shape: n x (k+1)f input, (k+1)f x h weight.
    const int64_t in = (k + 1) * f;
    Rng rng(seed);
    auto random = [&](int64_t rows, int64_t cols) {
      Matrix m(rows, cols);
      for (int64_t i = 0; i < rows * cols; ++i) m.data()[i] = float(rng.Uniform(-1, 1));
      return m;
    };
    const Matrix x = random(n, in), w = random(in, h), g = random(n, h);
    const double flops = 2.0 * double(n) * double(in) * double(h);
    p.gemm_gflops = flops / MedianMs(5, [&] { (void)adpa::MatMul(x, w); }) * 1e-6;
    p.gemm_ta_gflops =
        flops / MedianMs(5, [&] { (void)adpa::MatMulTransposeA(x, g); }) * 1e-6;
    p.gemm_tb_gflops =
        flops / MedianMs(5, [&] { (void)adpa::MatMulTransposeB(g, w); }) * 1e-6;
    // Dense layers of one ADPA forward: per step the fusion MLP
    // ((k+1)f -> h -> h), then the hop scorer (K*h -> K) and the classifier
    // (h -> C). An epoch runs a training forward, two backward products per
    // layer and an eval forward: four forward's worth.
    const double forward =
        2.0 * double(n) *
        (double(steps) * (double(in * h) + double(h * h)) +
         double(steps * h * steps) + double(h * d.num_classes));
    p.gemm_flops_per_epoch = 4.0 * forward;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Serving.

struct Query {
  std::vector<int64_t> nodes;
  std::vector<int64_t> classes;  // in-process Classify
  std::string body;              // "nodes":[...]
};

struct PhaseResult {
  LoadResult load;
  adpa::serve::MetricsSnapshot server;
  adpa::net::ServerStats stats;
  double server_cpu_s = 0.0;  // CPU time of the server's event-loop thread
};

std::vector<ScheduledRequest> QuerySchedule(const std::vector<Query>& pool,
                                            double qps, double seconds,
                                            int connections, int64_t* next_id) {
  std::vector<ScheduledRequest> schedule;
  const int64_t count = std::max<int64_t>(1, int64_t(qps * seconds));
  schedule.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    const Query& q = pool[size_t(*next_id) % pool.size()];
    ScheduledRequest r;
    r.due_ns = int64_t(double(i) * 1e9 / qps);
    r.connection = int(i % connections);
    r.id = (*next_id)++;
    r.line = "{\"id\":" + std::to_string(r.id) + "," + q.body + "}\n";
    r.expected = &q.classes;
    schedule.push_back(std::move(r));
  }
  return schedule;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

struct ServeCpus {
  int server = -1;
  ClientCpus client;
};

/// The first three CPUs the process may use, for the server loop and the
/// client's two threads; nothing is pinned when there are fewer.
ServeCpus PickServeCpus() {
  ServeCpus cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE && allowed.size() < 3; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  if (allowed.size() < 3) return cpus;
  cpus.server = allowed[0];
  cpus.client.sender = allowed[1];
  cpus.client.reader = allowed[2];
  return cpus;
}

PhaseResult RunPhase(adpa::serve::SessionRegistry* registry, int connections,
                     const std::vector<ScheduledRequest>& schedule) {
  adpa::serve::ServeMetrics metrics;
  Result<std::unique_ptr<adpa::net::Server>> server =
      adpa::net::Server::Create(adpa::net::ServerOptions{}, registry, &metrics);
  ADPA_CHECK(server.ok()) << server.status().ToString();
  adpa::Status served;
  const ServeCpus cpus = PickServeCpus();
  PhaseResult r;
  std::thread loop([&] {
    PinCurrentThread(cpus.server);
    served = (*server)->Serve();
    r.server_cpu_s = ThreadCpuSeconds();
  });
  r.load = RunOpenLoop((*server)->port(), connections, schedule, /*drain_s=*/5.0,
                       cpus.client);
  (*server)->RequestStop();
  loop.join();
  ADPA_CHECK(served.ok()) << served.ToString();
  r.server = metrics.Snapshot();
  r.stats = (*server)->stats();
  return r;
}

/// Latency (ms from the due time) of each correctly answered request due in
/// [from, to).
std::vector<double> LatenciesMs(const LoadResult& load, Clock::time_point from,
                                Clock::time_point to) {
  std::vector<double> ms;
  for (const RequestOutcome& o : load.outcomes) {
    if (o.answered && o.ok && o.due >= from && o.due < to) {
      ms.push_back(Seconds(o.due, o.done) * 1e3);
    }
  }
  return ms;
}

std::vector<double> LatenciesMs(const LoadResult& load) {
  return LatenciesMs(load, Clock::time_point::min(), Clock::time_point::max());
}

/// The median over consecutive windows of `window_s` (by due time) of each
/// window's p-th latency percentile. A shared host can stall a vCPU for
/// milliseconds in bursts; a burst then spoils a few windows instead of the
/// whole figure.
double WindowedPercentile(const LoadResult& load, double window_s, double p) {
  const Clock::time_point start = load.outcomes.front().due;
  const Clock::time_point end = load.outcomes.back().due;
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  std::vector<double> per_window;
  for (Clock::time_point from = start; from + window <= end + window / 10; from += window) {
    per_window.push_back(Percentile(LatenciesMs(load, from, from + window), p));
  }
  return Median(per_window);
}

/// Every request is one operation; a missing, malformed or wrong reply fails.
void Account(const PhaseResult& phase, const std::string& what, Ledger* ledger) {
  int64_t bad = phase.load.unexpected_replies;
  for (const RequestOutcome& o : phase.load.outcomes) bad += !(o.answered && o.ok);
  ledger->attempted += int64_t(phase.load.outcomes.size());
  ledger->failed += bad;
  if (bad > 0) {
    std::printf("CHECK FAILED: %lld of %zu %s requests (%s)\n", (long long)bad,
                phase.load.outcomes.size(), what.c_str(),
                phase.load.errors.empty() ? "unanswered" : phase.load.errors[0].c_str());
  }
}

struct Rung {
  double offered = 0.0;
  double achieved = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;
  bool meets_slo = false;
};

struct ServeReport {
  std::vector<double> reference_ms;  // client latency at the reference rate
  double reference_p50_ms = 0.0, reference_p99_ms = 0.0;  // windowed medians
  double server_p50_ms = 0.0, server_p99_ms = 0.0, batch_requests_mean = 0.0;
  double query_cpu_us = 0.0;  // event-loop CPU time per query at the reference rate
  double reload_cpu_ms = 0.0;  // event-loop CPU time of the reload phase per reload
  std::vector<Rung> ladder;
  double qps_at_slo = 0.0;
  std::vector<double> reload_ms;
  std::vector<double> send_lag_ms;
  uint64_t rejected = 0, shed = 0, accepted = 0, dropped = 0, io_errors = 0;
};

void AddServerCounters(const PhaseResult& phase, ServeReport* report) {
  report->rejected += phase.server.rejected;
  report->shed += phase.server.shed;
  report->accepted += phase.stats.accepted;
  report->dropped += phase.stats.dropped;
  report->io_errors += phase.stats.io_errors;
  for (const RequestOutcome& o : phase.load.outcomes) {
    report->send_lag_ms.push_back(Seconds(o.due, o.sent) * 1e3);
  }
}

Rung RunRung(adpa::serve::SessionRegistry* registry, const std::vector<Query>& pool,
             double qps, int64_t* next_id, ServeReport* report, Tracer* tracer,
             Ledger* ledger) {
  ScopedSpan s(tracer, "rung", "net");
  const PhaseResult phase = RunPhase(
      registry, kQueryConnections,
      QuerySchedule(pool, qps, kRungS, kQueryConnections, next_id));
  Account(phase, "ladder", ledger);
  AddServerCounters(phase, report);
  Rung rung;
  rung.offered = qps;
  const std::vector<double> ms = LatenciesMs(phase.load);
  rung.samples = ms.size();
  rung.p50_ms = Percentile(ms, 50.0);
  rung.p99_ms = Percentile(ms, 99.0);
  Clock::time_point last = phase.load.outcomes.front().due;
  for (const RequestOutcome& o : phase.load.outcomes) {
    if (o.answered) last = std::max(last, o.done);
  }
  rung.achieved = double(ms.size()) /
                  std::max(1e-9, Seconds(phase.load.outcomes.front().due, last));
  rung.meets_slo = ms.size() == phase.load.outcomes.size() && rung.p50_ms <= kSloP50Ms;
  report->ladder.push_back(rung);
  if (rung.meets_slo) report->qps_at_slo = std::max(report->qps_at_slo, rung.achieved);
  return rung;
}

/// Serves the pass's checkpoint from the real epoll server on loopback and
/// drives it open-loop: a warm-up, the ladder (when `ladder` is set), reloads
/// of the checkpoint while queries run at a low rate, and last the reference
/// rate for the rest of `budget_s`. Each phase gets a fresh server, so the
/// server's own latency figures belong to that phase.
ServeReport Serve(const std::string& ckpt_path, const Dataset& dataset,
                  const std::vector<Query>& pool, double budget_s, bool ladder,
                  Tracer* tracer, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  ServeReport report;
  adpa::serve::SessionRegistry registry(&dataset, adpa::serve::EngineOptions{});
  {
    ScopedSpan s(tracer, "first_session", "serve");
    Result<adpa::serve::SessionRegistry::ReloadInfo> loaded = registry.Reload(ckpt_path);
    ADPA_CHECK(loaded.ok()) << loaded.status().ToString();
  }
  int64_t next_id = 0;
  {
    ScopedSpan s(tracer, "warmup", "net");
    const PhaseResult warm = RunPhase(
        &registry, kQueryConnections,
        QuerySchedule(pool, kReferenceQps, kWarmupS, kQueryConnections, &next_id));
    Account(warm, "warm-up", ledger);
  }
  // A rung that misses the service level but keeps up was hit by a stall; a
  // rung that falls behind the offered rate is saturated and ends the search.
  auto saturated = [](const Rung& rung) {
    return rung.achieved < kSaturated * rung.offered;
  };
  double best = 0.0;
  int misses = 0;
  for (double qps = kLadderStartQps;
       ladder && qps <= kLadderMaxQps && misses < kMaxMisses; qps *= kCoarseStep) {
    const Rung rung = RunRung(&registry, pool, qps, &next_id, &report, tracer, ledger);
    if (rung.meets_slo) best = qps;
    misses = rung.meets_slo ? 0 : misses + 1;
    if (saturated(rung)) break;
  }
  misses = 0;
  for (int i = 1; i <= kFineRungs && best > 0.0 && misses < kMaxMisses; ++i) {
    const double qps = best * std::pow(kFineStep, i);
    if (qps > kLadderMaxQps) break;
    const Rung rung = RunRung(&registry, pool, qps, &next_id, &report, tracer, ledger);
    misses = rung.meets_slo ? 0 : misses + 1;
    if (saturated(rung)) break;
  }
  {
    // Two query connections at a low rate, and reloads of the same
    // checkpoint on the admin connection.
    ScopedSpan s(tracer, "reload_phase", "net");
    const double reload_s = kReloads * kReloadSpacingS;
    const int query_connections = kQueryConnections - 1;
    std::vector<ScheduledRequest> schedule = QuerySchedule(
        pool, kReloadPhaseQps, reload_s, query_connections, &next_id);
    for (int i = 0; i < kReloads; ++i) {
      ScheduledRequest r;
      r.due_ns = int64_t((i + 0.5) * kReloadSpacingS * 1e9);
      r.connection = query_connections;
      r.id = next_id++;
      r.line = "{\"id\":" + std::to_string(r.id) + ",\"reload\":\"" + ckpt_path + "\"}\n";
      schedule.push_back(std::move(r));
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ScheduledRequest& a, const ScheduledRequest& b) {
                       return a.due_ns < b.due_ns;
                     });
    const PhaseResult phase = RunPhase(&registry, kQueryConnections, schedule);
    Account(phase, "reload-phase", ledger);
    AddServerCounters(phase, &report);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const RequestOutcome& o = phase.load.outcomes[i];
      if (schedule[i].expected == nullptr && o.answered && o.ok) {
        report.reload_ms.push_back(Seconds(o.due, o.done) * 1e3);
      }
    }
    report.reload_cpu_ms = phase.server_cpu_s * 1e3 / kReloads;
  }
  {
    ScopedSpan s(tracer, "reference", "net");
    const double reference_s =
        std::max(kMinReferenceS, budget_s - Seconds(start, Clock::now()));
    const std::vector<ScheduledRequest> schedule = QuerySchedule(
        pool, kReferenceQps, reference_s, kQueryConnections, &next_id);
    const PhaseResult ref = RunPhase(&registry, kQueryConnections, schedule);
    Account(ref, "reference-rate", ledger);
    AddServerCounters(ref, &report);
    report.reference_ms = LatenciesMs(ref.load);
    report.reference_p50_ms = WindowedPercentile(ref.load, kWindowS, 50.0);
    report.reference_p99_ms = WindowedPercentile(ref.load, kWindowS, 99.0);
    report.server_p50_ms = ref.server.p50_latency_ms;
    report.server_p99_ms = ref.server.p99_latency_ms;
    report.batch_requests_mean = ref.server.mean_batch_requests;
    report.query_cpu_us = ref.server_cpu_s * 1e6 /
                          double(std::max<size_t>(1, report.reference_ms.size()));
    for (size_t i = 0; i < schedule.size(); ++i) {
      const RequestOutcome& o = ref.load.outcomes[i];
      if (o.answered) tracer->Add("query", "net", o.due, o.done, s.id(), schedule[i].id);
    }
  }
  return report;
}

std::vector<Query> BuildQueryPool(const adpa::serve::InferenceSession& session,
                                  uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Query> pool(kQueryPool);
  for (Query& q : pool) {
    q.body = "\"nodes\":[";
    for (int i = 0; i < kNodesPerQuery; ++i) {
      q.nodes.push_back(rng.UniformInt(session.num_nodes()));
      if (i > 0) q.body += ",";
      q.body += std::to_string(q.nodes.back());
    }
    q.body += "]";
    Result<std::vector<int64_t>> classes = session.Classify(q.nodes);
    ADPA_CHECK(classes.ok()) << classes.status().ToString();
    q.classes = std::move(classes).value();
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Provenance and output.

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void PrintResult(const std::vector<Metric>& metrics, const Ledger& ledger) {
  PrintMetrics(metrics);
  std::string json = "{\"correct\": " + std::string(ledger.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ledger.attempted) +
                     ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Summary(const std::vector<double>& samples, const char* unit) {
  if (samples.size() < 10) {  // too few for a tail: list them
    std::string list;
    for (double v : samples) list += (list.empty() ? "" : " ") + Num(v).substr(0, 6);
    return "median " + Num(Median(samples)).substr(0, 6) + " " + unit + " of [" + list + "]";
  }
  const double tail = TailPercentile(samples.size());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "median %.4g %s, p%g %.4g %s, n=%zu",
                Median(samples), unit, tail, Percentile(samples, tail), unit,
                samples.size());
  return buf;
}

int Main(int argc, char** argv) {
  KeepFreedMemory();
  adpa::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  const std::string workload_name = flags.GetString("workload", "");
  const uint64_t seed = uint64_t(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 40.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string trace_dir = flags.GetString("trace_dir", ".");
  const std::string work_dir = flags.GetString("work_dir", ".");
  const std::string commit = flags.GetString("commit", "unknown");

  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload_name.c_str());
    return 2;
  }
  const int cpus = UsableCpus();
#ifdef NDEBUG
  const bool release = true;
#else
  const bool release = false;
#endif
  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %d, \"simd\": \"%s\", \"march\": \"%s\", "
              "\"build_type\": \"%s\", \"pipeline_threads\": %d, "
              "\"server_threads\": %d, \"client_threads\": 2, \"compiler\": \"%s\", "
              "\"malloc\": \"no mmap, no trim\", "
              "\"commit\": \"%s\"}\n",
              w->name, (unsigned long long)seed, seconds, int(trace), cpus,
              adpa::simd::LevelName(adpa::simd::ActiveLevel()), PERFBENCH_MARCH,
              release ? "Release" : "Debug", kPipelineThreads, kServeThreads,
              PERFBENCH_COMPILER, commit.c_str());
  if (!release || SanitizerBuild()) {
    std::fprintf(stderr, "refusing to record from a debug or sanitizer build\n");
    return 3;
  }
  if (kPipelineThreads > cpus) {
    std::fprintf(stderr, "refusing to record: %d kernel threads on %d CPUs\n",
                 kPipelineThreads, cpus);
    return 3;
  }

  const Clock::time_point run_start = Clock::now();
  Tracer tracer(trace);
  Ledger ledger;
  const std::string ckpt_path =
      work_dir + "/model-" + std::to_string(::getpid()) + ".ckpt";
  adpa::SetNumThreads(kPipelineThreads);

  // Pipeline passes. The traced run makes two untraced passes, the first
  // for the replay check and the second (warm, like the traced one) for the
  // overhead figure, then one traced pass.
  std::vector<PassResult> passes;
  const int full_passes = trace ? 3 : w->passes;
  for (int p = 0; p < full_passes; ++p) {
    const bool traced_pass = trace && p == 2;
    Tracer off(false);
    passes.push_back(RunPass(*w, seed, ckpt_path, /*replay=*/traced_pass,
                             traced_pass ? &tracer : &off, &ledger));
    if (p > 0) {
      ledger.Check(SameTraining(passes[0].train, passes[p].train),
                   traced_pass ? "traced epoch replay matches TrainModel bit for bit"
                               : "repeated pass at the same seed trains identically");
      // Only the last pass is served; the peak RSS is that of one pass.
      passes[p - 1].dataset = Dataset();
      passes[p - 1].checkpoint = Checkpoint();
    }
  }
  std::vector<double> setup_s, setup_cpu_s;
  for (const PassResult& p : passes) {
    setup_s.push_back(p.setup_s);
    setup_cpu_s.push_back(p.setup_cpu_s);
  }
  const PassResult& last = passes.back();

  LayerProbe probe;
  if (trace) {
    Result<adpa::BenchmarkSpec> spec = adpa::FindBenchmark(w->dataset);
    Result<Dataset> natural = adpa::BuildBenchmark(*spec, seed, w->scale);
    ADPA_CHECK(natural.ok()) << natural.status().ToString();
    probe = ProbeLayers(last, *natural, seed, &tracer);
  }

  // Serving starts from a trimmed heap, so the peak RSS stays that of the
  // passes; the heap serving grows afterwards is never trimmed, and its size
  // varies with the run.
  malloc_trim(0);
  adpa::SetNumThreads(kServeThreads);
  Result<adpa::serve::InferenceSession> session =
      adpa::serve::InferenceSession::Create(last.checkpoint, last.dataset);
  ADPA_CHECK(session.ok()) << session.status().ToString();
  const std::vector<Query> pool = BuildQueryPool(*session, seed);
  std::vector<double> forward_rows_us;
  if (trace) {
    ScopedSpan s(&tracer, "probe_forward_rows", "serve");
    for (int round = 0; round < 3; ++round) {
      for (const Query& q : pool) {
        const Clock::time_point t = Clock::now();
        Result<Matrix> rows = session->ForwardRows(q.nodes);
        ADPA_CHECK(rows.ok()) << rows.status().ToString();
        if (round > 0) forward_rows_us.push_back(Seconds(t, Clock::now()) * 1e6);
      }
    }
  }
  const ServeReport serve =
      Serve(ckpt_path, last.dataset, pool, seconds - Seconds(run_start, Clock::now()),
            /*ladder=*/trace || w->ladder, &tracer, &ledger);
  std::remove(ckpt_path.c_str());

  // Per-pass figures of the untraced passes.
  std::vector<double> pipeline_s, epoch_ms, pipeline_cpu_s, epoch_cpu_ms;
  for (size_t p = 0; p < passes.size() - (trace ? 1 : 0); ++p) {
    pipeline_s.push_back(passes[p].pipeline_s);
    epoch_ms.push_back(passes[p].train_s * 1e3 / kEpochs);
    pipeline_cpu_s.push_back(passes[p].pipeline_cpu_s);
    epoch_cpu_ms.push_back(passes[p].train_cpu_s * 1e3 / kEpochs);
  }
  const double query_p50 = serve.reference_p50_ms;
  // Wall-clock figures of the pipeline and of serving. They print in every
  // run and the traced run reports them as per-layer metrics, but the result
  // gates CPU time instead: on a shared host, steal time moved these by more
  // than a regression bound can allow (README.md, "Why the result is CPU
  // time").
  const std::vector<Metric> wall = {
      {"pipeline_s", Median(pipeline_s), "s", Summary(pipeline_s, "s")},
      {"setup_wall_s", Median(setup_s), "s",
       "generate through Eq. 9, " + Summary(setup_s, "s")},
      {"epoch_ms", Median(epoch_ms), "ms", Summary(epoch_ms, "ms")},
      {"query_p50_ms", query_p50, "ms",
       "median of 0.5 s window p50s at " + Num(kReferenceQps) + " qps; pooled " +
           Summary(serve.reference_ms, "ms")},
      {"query_p99_ms", serve.reference_p99_ms, "ms",
       "median of 0.5 s window p99s at " + Num(kReferenceQps) + " qps"},
      {"qps_at_slo", serve.qps_at_slo, "1/s",
       serve.ladder.empty()
           ? "no ladder in this run: serve_tcp and traced runs step it"
           : "achieved rate of the highest rung that keeps up with p50 <= 1 ms"},
      {"reload_ms", Median(serve.reload_ms), "ms",
       "client-observed, " + Summary(serve.reload_ms, "ms")},
  };
  std::vector<Metric> metrics;
  if (!trace) {
    std::printf("wall-clock figures (not gated):\n");
    PrintMetrics(wall);
    for (const Rung& r : serve.ladder) {
      std::printf("  rung offered %6.0f qps: achieved %8.1f, p50 %.3f ms, "
                  "p99 %.3f ms, n=%zu%s\n",
                  r.offered, r.achieved, r.p50_ms, r.p99_ms, r.samples,
                  r.meets_slo ? "" : "  (misses the SLO)");
    }
    std::printf("result:\n");
    metrics = {
        {"pipeline_cpu_s", Median(pipeline_cpu_s), "s",
         "process CPU time of one pass, " + Summary(pipeline_cpu_s, "s")},
        {"setup_s", Median(setup_cpu_s), "s",
         "process CPU time, generate through Eq. 9, " + Summary(setup_cpu_s, "s")},
        {"epoch_cpu_ms", Median(epoch_cpu_ms), "ms",
         "process CPU time of TrainModel / 20, " + Summary(epoch_cpu_ms, "ms")},
        {"test_acc", last.train.test_accuracy, "fraction", "at the best validation epoch"},
        {"peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss"},
        {"query_cpu_us", serve.query_cpu_us, "us",
         "event-loop CPU time per query at " + Num(kReferenceQps) + " qps"},
        {"reload_cpu_ms", serve.reload_cpu_ms, "ms",
         "event-loop CPU time per reload in the reload phase"},
    };
  } else {
    const std::vector<std::string> problems = tracer.Check("pass", 0.99);
    for (const std::string& p : problems) std::printf("trace: %s\n", p.c_str());
    ledger.Check(problems.empty(), "spans nest, self times >= 0, stages cover the pass");
    const std::string trace_path = trace_dir + "/trace-" + w->name + "-" +
                                   std::to_string(seed) + ".json";
    ledger.Check(tracer.WriteJson(trace_path), "trace written to " + trace_path);

    auto stage_ms = [&](const char* name) {
      double ms = 0.0;
      for (const Span& s : tracer.spans()) {
        if (s.name == name && s.parent == last.pass_span) {
          ms += double(s.end_ns - s.start_ns) * 1e-6;
        }
      }
      return ms;
    };
    const double pass_s = last.pipeline_s;
    std::map<std::string, double> layers = tracer.LayerSelfSeconds(last.pass_span);
    const double forward_p50_ms = Percentile(forward_rows_us, 50.0) * 1e-3;
    const double client_p50 = std::max(1e-9, query_p50);
    const double forward_tail = TailPercentile(forward_rows_us.size());
    metrics = wall;
    metrics.insert(metrics.end(), {
        {"generate_ms", stage_ms("generate"), "ms", "data: BuildBenchmark"},
        {"amud_ms", stage_ms("amud"), "ms", "amud: ComputeAmud"},
        {"select_ms", stage_ms("select"), "ms", "amud: SelectPatternsByCorrelation"},
        {"reach_nnz", probe.reach_nnz, "count",
         "computed: nnz of the 4 order-2 reachabilities"},
        {"propagate_ms", probe.propagate_ms, "ms",
         "graph: PatternSet + K x ApplyStep, median of 3"},
        {"spmm_work", probe.spmm_work, "count",
         "computed: K * sum(order) * nnz * f multiply-adds"},
        {"spmm_gflops", 2.0 * probe.spmm_work / probe.propagate_ms * 1e-6, "GF/s",
         "from the computed SpMM work"},
        {"gemm_gflops", probe.gemm_gflops, "GF/s", "tensor: MatMul at n x (k+1)f x h"},
        {"gemm_ta_gflops", probe.gemm_ta_gflops, "GF/s", "tensor: MatMulTransposeA"},
        {"gemm_tb_gflops", probe.gemm_tb_gflops, "GF/s", "tensor: MatMulTransposeB"},
        {"gemm_flops_per_epoch", probe.gemm_flops_per_epoch, "flop",
         "computed: 4 x forward dense-layer flops"},
        {"fwd_ms", Median(last.fwd_ms), "ms", Summary(last.fwd_ms, "ms")},
        {"bwd_ms", Median(last.bwd_ms), "ms", Summary(last.bwd_ms, "ms")},
        {"opt_ms", Median(last.opt_ms), "ms", Summary(last.opt_ms, "ms")},
        {"eval_ms", Median(last.eval_ms), "ms", Summary(last.eval_ms, "ms")},
        {"tape_nodes_train", double(last.tape_nodes_train), "count",
         "ag::AnalyzeTape on the loss"},
        {"tape_nodes_eval", double(last.tape_nodes_eval), "count",
         "ag::AnalyzeTape on eval logits"},
        {"pass_minor_faults", double(last.minor_faults), "count",
         "page faults of the traced pass (freed memory stays in the heap)"},
        {"ckpt_save_ms", stage_ms("ckpt_save"), "ms",
         "io: MakeCheckpoint + SaveCheckpoint"},
        {"ckpt_load_ms", stage_ms("ckpt_load"), "ms", "io: TryLoadCheckpoint"},
        {"ckpt_bytes", double(last.ckpt_bytes), "B", "file size"},
        {"session_create_ms", stage_ms("session_create"), "ms",
         "serve: InferenceSession::Create"},
        {"forward_rows_p50_us", Percentile(forward_rows_us, 50.0), "us",
         Summary(forward_rows_us, "us")},
        {"forward_rows_tail_us", Percentile(forward_rows_us, forward_tail), "us",
         "p" + Num(forward_tail)},
        {"server_p50_ms", serve.server_p50_ms, "ms", "ServeMetrics at the reference rate"},
        {"server_p99_ms", serve.server_p99_ms, "ms", "ServeMetrics at the reference rate"},
        {"batch_requests_mean", serve.batch_requests_mean, "count", "requests per forward"},
        {"rejected", double(serve.rejected), "count", "ServeMetrics, all phases"},
        {"shed", double(serve.shed), "count", "ServeMetrics, all phases"},
        {"net_overhead_p50_ms", query_p50 - serve.server_p50_ms, "ms",
         "client p50 minus server p50"},
        {"accepted", double(serve.accepted), "count", "ServerStats, all phases"},
        {"dropped", double(serve.dropped), "count", "ServerStats, all phases"},
        {"io_errors", double(serve.io_errors), "count", "ServerStats, all phases"},
        {"send_lag_p99_ms", Percentile(serve.send_lag_ms, 99.0), "ms",
         Summary(serve.send_lag_ms, "ms") + ", generator validity"},
        {"trace_overhead_s", last.pipeline_s - passes[1].pipeline_s, "s",
         "traced minus untraced pipeline_s"},
    });
    // Layer shares: self time of each layer as a share of the traced pass,
    // and the parts of a served query at the reference rate.
    std::printf("layer shares of the traced pass (%.3f s):\n", pass_s);
    for (const auto& [layer, s] : layers) {
      std::printf("  %-8s %9.3f s %7.2f %%\n", layer.c_str(), s, 100.0 * s / pass_s);
    }
    std::printf("parts of a served query at %g qps (client p50 %.4f ms):\n"
                "  forward (in-process ForwardRows p50) %.4f ms\n"
                "  server wait (server p50 - forward)    %.4f ms\n"
                "  network and client (client - server)  %.4f ms\n",
                kReferenceQps, query_p50, forward_p50_ms,
                serve.server_p50_ms - forward_p50_ms, query_p50 - serve.server_p50_ms);
    const char* kLayers[] = {"data", "amud", "graph", "train",
                             "io",   "serve", "trace", "bench"};
    for (const char* layer : kLayers) {
      metrics.push_back({std::string("share_") + layer, 100.0 * layers[layer] / pass_s, "%",
                         "self time share of the traced pass"});
    }
    metrics.push_back({"query_share_forward", 100.0 * forward_p50_ms / client_p50, "%",
                       "in-process ForwardRows p50 / client p50"});
    metrics.push_back({"query_share_server_wait",
                       100.0 * (serve.server_p50_ms - forward_p50_ms) / client_p50,
                       "%", "(server p50 - ForwardRows p50) / client p50"});
    metrics.push_back({"query_share_net",
                       100.0 * (query_p50 - serve.server_p50_ms) / client_p50,
                       "%", "(client p50 - server p50) / client p50"});
  }
  PrintResult(metrics, ledger);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
