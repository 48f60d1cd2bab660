#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "checks.h"
#include "core/engine.h"
#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "datasets/query_gen.h"
#include "index/star_index.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "reference_scorer.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "shard/sharded_engine.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cirank {
namespace perfbench {

namespace {

// The paper's Fig. 11 search setting, shared by every workload.
constexpr int kTopK = 10;
constexpr uint32_t kDiameter = 4;

// One keyword per query target (a surname or one title word). Queries that
// name every target in full reach 5-6 keywords, and their merge closures
// make a single query run for seconds to minutes under the same expansion
// budget (CHANGES.md, FOUND), which no fixed-work run could absorb.
constexpr double kAmbiguousProb = 1.0;

// serve_clicks: a Zipf-skewed hot pool, small searches, one click after
// every round of kRequestsPerClient requests from each client.
constexpr int kClients = 2;
constexpr int kPoolSize = 128;
constexpr double kZipfExponent = 1.0;
constexpr int64_t kServeExpansions = 100;
constexpr int kRequestsPerClient = 100;

struct InProcessPlan {
  bool imdb = true;
  bool star_index = true;
  int64_t max_expansions = 0;
  // Operations per second of RunConfig::seconds.
  int queries_per_second = 0;
  // Compare proven-optimal answers with the naive executor's.
  bool naive_check = false;
};

constexpr InProcessPlan kImdbStar = {true, true, 2000, 24, true};
constexpr InProcessPlan kDblpCapped = {false, false, 200, 56, false};
// Requests per second of RunConfig::seconds.
constexpr int kServeRequestsPerSecond = 750;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Linear interpolation between the closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// The bench graphs of bench/ at scale 1 (bench/bench_util.cc).
ImdbGenOptions ImdbBenchGraph() {
  ImdbGenOptions options;
  options.num_movies = 1500;
  options.num_actors = 2000;
  options.num_actresses = 1000;
  options.num_directors = 300;
  options.num_producers = 200;
  options.num_companies = 100;
  options.seed = 1001;
  return options;
}

DblpGenOptions DblpBenchGraph() {
  DblpGenOptions options;
  options.num_papers = 2500;
  options.num_authors = 1800;
  options.num_conferences = 24;
  options.seed = 2002;
  return options;
}

std::string SearchBody(const Query& query, int64_t max_expansions) {
  std::string text;
  for (const std::string& keyword : query.keywords) {
    if (!text.empty()) text += ' ';
    text += keyword;
  }
  std::string body = "{\"query\":";
  serve::AppendJsonString(&body, text);
  body += ",\"k\":" + std::to_string(kTopK) +
          ",\"max_diameter\":" + std::to_string(kDiameter) +
          ",\"max_expansions\":" + std::to_string(max_expansions) + "}";
  return body;
}

// Benchmark-side spans around each call into the program. Inert (and
// free) when tracing is off.
class BenchTrace {
 public:
  explicit BenchTrace(bool enabled)
      : collector_(enabled ? std::make_unique<obs::TraceCollector>()
                           : nullptr),
        track_(collector_ != nullptr ? collector_->NewTrack() : 0) {}

  obs::TraceCollector* collector() const { return collector_.get(); }
  int64_t NewTrack() const {
    return collector_ != nullptr ? collector_->NewTrack() : 0;
  }
  obs::TraceSpan Span(const char* name, uint64_t trace_id = 0,
                      int64_t track = 0) const {
    return obs::TraceSpan(collector_.get(), name, "bench",
                          track != 0 ? track : track_, trace_id);
  }

  // Every engine span carrying a trace id lies inside the benchmark span
  // named `op` with the same id, and that id's stage spans sum to no more
  // than the benchmark span.
  void CheckNesting(const char* op,
                    std::vector<std::string>* violations) const {
    if (collector_ == nullptr) return;
    const std::vector<obs::TraceCollector::Span> spans = collector_->Snapshot();
    std::map<uint64_t, const obs::TraceCollector::Span*> outer;
    for (const auto& span : spans) {
      if (span.category == "bench" && span.name == op && span.trace_id != 0) {
        outer[span.trace_id] = &span;
      }
    }
    std::map<uint64_t, int64_t> stage_us;
    for (const auto& span : spans) {
      if (span.category == "bench" || span.trace_id == 0) continue;
      const auto it = outer.find(span.trace_id);
      if (it == outer.end()) {
        violations->push_back("engine span '" + span.name +
                              "' has no enclosing benchmark span");
        return;
      }
      const auto& b = *it->second;
      if (span.start_us < b.start_us ||
          span.start_us + span.duration_us > b.start_us + b.duration_us) {
        violations->push_back("engine span '" + span.name +
                              "' lies outside its benchmark span");
        return;
      }
      if (span.category == "stage") stage_us[span.trace_id] += span.duration_us;
    }
    for (const auto& [id, total] : stage_us) {
      if (total > outer[id]->duration_us) {
        violations->push_back("stage spans outlast their benchmark span");
        return;
      }
    }
  }

  Status Write(const std::string& dir, const std::string& workload) const {
    if (collector_ == nullptr) return Status::OK();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/trace_" + workload + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << collector_->RenderChromeJson();
    if (!out) return Status::Internal("cannot write " + path);
    return Status::OK();
  }

 private:
  std::unique_ptr<obs::TraceCollector> collector_;
  int64_t track_;
};

// Sums of the executor counters over the searches that ran.
struct CoreTotals {
  double prepare_s = 0.0;
  double expand_s = 0.0;
  double emit_s = 0.0;
  int64_t expanded = 0;
  int64_t generated = 0;
  int64_t merged = 0;
  int64_t pruned = 0;
  int64_t bound_calls = 0;
  int64_t exact = 0;
  int64_t capped = 0;
  double arena_peak_bytes = 0.0;

  void Add(const StageStats& s, int64_t popped, bool proven_optimal,
           bool budget_exhausted) {
    prepare_s += s.prepare_seconds;
    expand_s += s.expand_seconds;
    emit_s += s.emit_seconds;
    // `popped` also counts the dequeue that found the budget spent.
    expanded += popped - (budget_exhausted ? 1 : 0);
    generated += s.candidates_generated;
    merged += s.candidates_merged;
    pruned += s.candidates_pruned;
    bound_calls += s.bound_calls;
    exact += proven_optimal ? 1 : 0;
    capped += budget_exhausted ? 1 : 0;
    arena_peak_bytes =
        std::max(arena_peak_bytes, static_cast<double>(s.arena_bytes));
  }
};

// Everything the per-layer metrics are made of; zero where a workload does
// not use the layer.
struct LayerFigures {
  double generate_s = 0.0;
  double engine_build_s = 0.0;
  double star_build_s = 0.0;
  double star_mib = 0.0;
  CoreTotals core;
  QueryCacheStats cache;
  double hit_rtt_p50_ms = 0.0;
  double miss_rtt_p50_ms = 0.0;
  std::vector<double> parse_us;
  std::vector<double> render_us;
  std::vector<double> click_us;
  double traced_latency_p50_ms = 0.0;
};

std::vector<Metric> PerLayer(const LayerFigures& f) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const CoreTotals& c = f.core;
  const double attempts = static_cast<double>(c.generated + c.pruned);
  const double lookups = static_cast<double>(f.cache.hits + f.cache.misses);
  return {
      {"datasets.generate_s", "s", f.generate_s},
      {"engine.build_s", "s", f.engine_build_s},
      {"index.star_build_s", "s", f.star_build_s},
      {"index.star_mib", "MiB", f.star_mib},
      {"core.prepare_s", "s", c.prepare_s},
      {"core.expand_s", "s", c.expand_s},
      {"core.emit_s", "s", c.emit_s},
      {"core.expanded", "count", static_cast<double>(c.expanded)},
      {"core.generated", "count", static_cast<double>(c.generated)},
      {"core.merged", "count", static_cast<double>(c.merged)},
      {"core.pruned", "count", static_cast<double>(c.pruned)},
      {"core.bound_calls", "count", static_cast<double>(c.bound_calls)},
      {"core.admit_ratio", "ratio",
       attempts > 0 ? static_cast<double>(c.generated) / attempts : 0.0},
      {"core.expansions_per_s", "1/s",
       c.expand_s > 0 ? static_cast<double>(c.expanded) / c.expand_s : 0.0},
      {"core.exact_queries", "count", static_cast<double>(c.exact)},
      {"core.capped_queries", "count", static_cast<double>(c.capped)},
      {"core.arena_peak_mib", "MiB", c.arena_peak_bytes / kMiB},
      {"cache.hits", "count", static_cast<double>(f.cache.hits)},
      {"cache.misses", "count", static_cast<double>(f.cache.misses)},
      {"cache.invalidations", "count",
       static_cast<double>(f.cache.invalidations)},
      {"cache.hit_ratio", "ratio",
       lookups > 0 ? static_cast<double>(f.cache.hits) / lookups : 0.0},
      {"serve.hit_rtt_p50_ms", "ms", f.hit_rtt_p50_ms},
      {"serve.miss_rtt_p50_ms", "ms", f.miss_rtt_p50_ms},
      {"serve.parse_us", "us", Quantile(f.parse_us, 0.5)},
      {"serve.render_us", "us", Quantile(f.render_us, 0.5)},
      {"feedback.click_us", "us", Quantile(f.click_us, 0.5)},
      {"trace.latency_p50_ms", "ms", f.traced_latency_p50_ms},
  };
}

std::vector<Metric> EndToEnd(const std::vector<double>& latency_ms,
                             int64_t completed, double phase_s,
                             double setup_s, double peak_rss_mib) {
  return {
      {"latency_p50_ms", "ms", Quantile(latency_ms, 0.5)},
      {"latency_p90_ms", "ms", Quantile(latency_ms, 0.9)},
      {"throughput_qps", "queries/s",
       phase_s > 0 ? static_cast<double>(completed) / phase_s : 0.0},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MiB", peak_rss_mib},
  };
}

double MicrosSince(const Timer& timer) {
  return timer.ElapsedSeconds() * 1e6;
}

// Times ParseSearchRequest on `body` and RenderSearchResponseJson on the
// answers it was served.
void TimeServeCodec(const std::string& body,
                    const std::vector<RankedAnswer>& answers,
                    const SearchStats& stats, const Graph& graph,
                    LayerFigures* layers) {
  Timer parse_timer;
  Result<serve::SearchRequest> request = serve::ParseSearchRequest(body);
  layers->parse_us.push_back(MicrosSince(parse_timer));
  if (!request.ok()) return;
  Timer render_timer;
  const std::string rendered =
      serve::RenderSearchResponseJson(*request, answers, stats, graph);
  layers->render_us.push_back(MicrosSince(render_timer));
}

Result<Dataset> Generate(bool imdb, const BenchTrace& trace,
                         LayerFigures* layers) {
  obs::TraceSpan span = trace.Span("bench.generate");
  Timer timer;
  Result<Dataset> dataset = imdb ? BuildImdbDataset(ImdbBenchGraph())
                                 : BuildDblpDataset(DblpBenchGraph());
  layers->generate_s = timer.ElapsedSeconds();
  return dataset;
}

Result<CiRankEngine> BuildEngine(const CiRankEngine::Builder& builder,
                                 const BenchTrace& trace,
                                 LayerFigures* layers) {
  obs::TraceSpan span = trace.Span("bench.engine_build");
  Timer timer;
  Result<CiRankEngine> engine = builder.Build();
  layers->engine_build_s += timer.ElapsedSeconds();
  return engine;
}

Result<StarIndex> BuildStarIndex(const Graph& graph, const RwmpModel& model,
                                 const BenchTrace& trace,
                                 LayerFigures* layers) {
  obs::TraceSpan span = trace.Span("bench.star_build");
  Timer timer;
  Result<StarIndex> index = StarIndex::Build(graph, model);
  layers->star_build_s = timer.ElapsedSeconds();
  if (index.ok()) {
    layers->star_mib =
        static_cast<double>(index->MemoryBytes()) / (1024.0 * 1024.0);
  }
  return index;
}

Result<std::vector<LabeledQuery>> MakeQueries(const Dataset& dataset,
                                              int count, bool user_log_style,
                                              uint64_t seed) {
  QueryGenOptions options;
  options.num_queries = count;
  options.user_log_style = user_log_style;
  options.ambiguous_prob = kAmbiguousProb;
  options.seed = seed;
  return GenerateQueries(dataset, options);
}

std::string QueryText(const Query& query) {
  std::string text;
  for (const std::string& keyword : query.keywords) text += " " + keyword;
  return text;
}

// --- imdb_star / dblp_capped ----------------------------------------------

Result<RunReport> RunInProcess(const RunConfig& config,
                               const InProcessPlan& plan) {
  BenchTrace trace(config.trace);
  LayerFigures layers;
  CIRANK_ASSIGN_OR_RETURN(const Dataset dataset,
                          Generate(plan.imdb, trace, &layers));
  const Graph& graph = dataset.graph;
  CIRANK_ASSIGN_OR_RETURN(
      const CiRankEngine engine,
      BuildEngine(CiRankEngine::Builder(graph).WithTrace(trace.collector()),
                  trace, &layers));
  std::optional<StarIndex> star;
  if (plan.star_index) {
    CIRANK_ASSIGN_OR_RETURN(
        star, BuildStarIndex(graph, engine.model(), trace, &layers));
  }
  const double setup_s = SecondsSince(config.process_start);

  CIRANK_ASSIGN_OR_RETURN(
      const std::vector<LabeledQuery> queries,
      MakeQueries(dataset, plan.queries_per_second * config.seconds,
                  /*user_log_style=*/false, config.seed));
  SearchOptions options;
  options.k = kTopK;
  options.max_diameter = kDiameter;
  options.max_expansions = plan.max_expansions;
  options.bounds = star.has_value() ? &*star : nullptr;

  // Timed phase: one query at a time.
  const size_t n = queries.size();
  std::vector<double> latency_ms(n, 0.0);
  std::vector<SearchStats> stats(n);
  std::vector<Result<std::vector<RankedAnswer>>> results;
  results.reserve(n);
  Timer phase;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t trace_id = config.trace ? i + 1 : 0;
    obs::TraceSpan span = trace.Span("bench.query", trace_id);
    Timer timer;
    results.push_back(
        engine.Search(queries[i].query, options, &stats[i], trace_id));
    latency_ms[i] = timer.ElapsedMillis();
  }
  const double phase_s = phase.ElapsedSeconds();
  const double peak_rss_mib = PeakRssMib();

  RunReport report;
  report.attempted = static_cast<int64_t>(n);
  const ReferenceScorer reference(graph, engine.model().importance_vector(),
                                  engine.model().params());
  AnswerCheckContext ctx;
  ctx.graph = &graph;
  ctx.reference = &reference;
  ctx.k = kTopK;
  ctx.max_diameter = kDiameter;
  SearchOptions naive = options;
  naive.executor = "naive";
  naive.max_expansions = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].ok()) {
      ++report.failed;
      continue;
    }
    const Query& query = queries[i].query;
    const std::vector<AnswerView> views = ToViews(*results[i]);
    std::string problem = CheckAnswerList(ctx, query, views);
    if (problem.empty() && stats[i].proven_optimal) {
      std::vector<AnswerView> others;
      if (plan.naive_check) {
        Result<std::vector<RankedAnswer>> naive_answers =
            engine.Search(query, naive);
        if (!naive_answers.ok()) {
          problem = "naive search failed: " + naive_answers.status().ToString();
        } else {
          others = ToViews(*naive_answers);
        }
      }
      if (problem.empty()) {
        problem = CheckProvenOptimal(stats[i], kTopK, views, others);
      }
    }
    if (problem.empty() && stats[i].budget_exhausted) {
      problem = CheckBudget(stats[i], plan.max_expansions);
    }
    if (!problem.empty()) {
      report.violations.push_back("query" + QueryText(query) + ": " + problem);
    }
    const SearchStats& s = stats[i];
    layers.core.Add(s.stages, s.popped, s.proven_optimal, s.budget_exhausted);
  }
  if (std::string problem = CheckNoFailures(report.attempted, report.failed);
      !problem.empty()) {
    report.violations.push_back(problem);
  }
  trace.CheckNesting("bench.query", &report.violations);
  CIRANK_RETURN_IF_ERROR(trace.Write(config.out_dir, config.workload));

  layers.traced_latency_p50_ms = config.trace ? Quantile(latency_ms, 0.5) : 0.0;
  report.end_to_end = EndToEnd(latency_ms, report.attempted - report.failed,
                               phase_s, setup_s, peak_rss_mib);
  report.per_layer = PerLayer(layers);
  return report;
}

// --- serve_clicks ---------------------------------------------------------

// The "answers" array and the "stats" object of a 200 /search envelope,
// as the exact bytes the server sent.
bool SplitEnvelope(std::string_view body, std::string_view* answers,
                   std::string_view* stats) {
  constexpr std::string_view kAnswersKey = ",\"answers\":";
  constexpr std::string_view kStatsKey = ",\"stats\":";
  const size_t a = body.find(kAnswersKey);
  const size_t s = body.rfind(kStatsKey);
  if (a == std::string_view::npos || s == std::string_view::npos || s < a ||
      body.empty() || body.back() != '}') {
    return false;
  }
  *answers = body.substr(a + kAnswersKey.size(), s - a - kAnswersKey.size());
  *stats = body.substr(s + kStatsKey.size(),
                       body.size() - 1 - s - kStatsKey.size());
  return true;
}

// One /search round trip as the client saw it. Response bodies are not
// kept, so the client adds little to the process's peak memory.
struct Exchange {
  int pool_index = 0;
  double rtt_ms = 0.0;
  bool ok = false;  // a 200 with a well-formed envelope
  bool from_cache = false;
  std::string miss_stats;  // the "stats" object of a fresh search
};

// One client's record of the timed phase.
struct ClientLog {
  std::vector<Exchange> exchanges;
  // Per pool query: the answers first served, and the round they were
  // last served in.
  std::map<int, std::string> answers;
  std::map<int, int> last_round;
  std::vector<std::string> problems;

  void Record(int pool_index, int round, double rtt_ms, int status_code,
              const std::string& body) {
    Exchange ex;
    ex.pool_index = pool_index;
    ex.rtt_ms = rtt_ms;
    std::string_view answers_json, stats_json;
    ex.ok = status_code == 200 &&
            SplitEnvelope(body, &answers_json, &stats_json);
    if (ex.ok) {
      ex.from_cache = stats_json.find("\"from_cache\":true") !=
                      std::string_view::npos;
      if (!ex.from_cache) ex.miss_stats = std::string(stats_json);
      const auto [first, fresh] = answers.try_emplace(pool_index, answers_json);
      if (!fresh && first->second != answers_json) {
        problems.push_back(
            last_round[pool_index] < round
                ? CheckAnswersAfterClick(std::string(answers_json),
                                         first->second)
                : CheckServedAnswers(std::string(answers_json),
                                     first->second));
      }
      last_round[pool_index] = round;
    }
    exchanges.push_back(std::move(ex));
  }
};

std::string RawSearchRequest(const std::string& body, uint64_t trace_id) {
  std::string raw = "POST /search HTTP/1.1\r\nHost: cirankd\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n";
  if (trace_id != 0) {
    raw += "x-cirank-trace-id: " + obs::FormatTraceId(trace_id) + "\r\n";
  }
  raw += "Connection: keep-alive\r\n\r\n" + body;
  return raw;
}

double NumberField(const serve::JsonValue& object, std::string_view key) {
  const serve::JsonValue* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

bool BoolField(const serve::JsonValue& object, std::string_view key) {
  const serve::JsonValue* v = object.Find(key);
  return v != nullptr && v->is_bool() && v->bool_value;
}

Result<RunReport> RunServeClicks(const RunConfig& config) {
  // Client connections plus server workers stay within the machine's
  // cores; cirankd's default of 4 workers is the ceiling.
  const int workers =
      std::clamp(ThreadPool::HardwareThreads() - kClients, 1, 4);
  // cirankd logs through the process-wide logger; keep the lines (and
  // their rendering cost) but not the terminal output.
  obs::Logger::Default().SetSink(
      [](const std::string&, const obs::LogEntry&) {});

  BenchTrace trace(config.trace);
  LayerFigures layers;
  obs::MetricsRegistry registry;
  CIRANK_ASSIGN_OR_RETURN(const Dataset dataset,
                          Generate(/*imdb=*/true, trace, &layers));
  const Graph& graph = dataset.graph;
  // cirankd's assembly (shard::EngineBuilder): engine, star index from
  // its model, engine again with the index as its bound provider, then the
  // one-shard serving facade.
  QueryCacheOptions cache;
  cache.capacity = 1024;
  CiRankEngine::Builder builder(graph);
  builder.WithCache(cache).WithMetrics(&registry).WithTrace(trace.collector());
  CIRANK_ASSIGN_OR_RETURN(const CiRankEngine first,
                          BuildEngine(builder, trace, &layers));
  CIRANK_ASSIGN_OR_RETURN(
      const StarIndex star,
      BuildStarIndex(graph, first.model(), trace, &layers));
  builder.WithBounds(&star);
  CIRANK_ASSIGN_OR_RETURN(CiRankEngine engine,
                          BuildEngine(builder, trace, &layers));
  shard::ShardedEngineOptions facade_options;
  facade_options.cache = cache;
  CIRANK_ASSIGN_OR_RETURN(
      shard::ShardedEngine facade,
      shard::ShardedEngine::Attach(&engine, facade_options));
  serve::ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.metrics = &registry;
  server_options.dataset = "imdb";
  serve::CirankServer server(&facade, server_options);
  {
    obs::TraceSpan span = trace.Span("bench.server_start");
    CIRANK_RETURN_IF_ERROR(server.Start());
  }
  const double setup_s = SecondsSince(config.process_start);

  // Inputs: the hot pool, each client's Zipf-skewed request list per
  // round, and the node clicked after each round.
  CIRANK_ASSIGN_OR_RETURN(
      const std::vector<LabeledQuery> pool,
      MakeQueries(dataset, kPoolSize, /*user_log_style=*/true, config.seed));
  std::vector<std::string> bodies;
  for (const LabeledQuery& lq : pool) {
    bodies.push_back(SearchBody(lq.query, kServeExpansions));
  }
  const int rounds = std::max(
      1, kServeRequestsPerSecond * config.seconds /
             (kClients * kRequestsPerClient));
  // The Zipf ranks map onto a fresh permutation of the pool every round:
  // the hot queries drift, so a run's cost averages over the whole pool
  // instead of hanging on the few queries that one fixed ranking would
  // make hot.
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  const ZipfSampler zipf(pool.size(), kZipfExponent);
  std::vector<int> ranking(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) ranking[p] = static_cast<int>(p);
  std::vector<std::vector<int>> schedule(kClients);
  std::vector<NodeId> clicks;
  for (int r = 0; r < rounds; ++r) {
    rng.Shuffle(&ranking);
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kRequestsPerClient; ++j) {
        schedule[c].push_back(ranking[zipf.Sample(&rng)]);
      }
    }
    clicks.push_back(
        dataset.star_entities[rng.NextUint(dataset.star_entities.size())]);
  }

  std::vector<serve::HttpBlockingClient> clients;
  for (int c = 0; c < kClients; ++c) {
    CIRANK_ASSIGN_OR_RETURN(
        serve::HttpBlockingClient client,
        serve::HttpBlockingClient::Connect(server.host(), server.port()));
    clients.push_back(std::move(client));
  }
  // Warm the result cache with every pool query (untimed). The trace ids
  // stay clear of the timed requests' ids.
  for (size_t p = 0; p < bodies.size(); ++p) {
    const uint64_t trace_id = config.trace ? (uint64_t{1} << 48) + p : 0;
    obs::TraceSpan span = trace.Span("bench.rtt", trace_id);
    CIRANK_RETURN_IF_ERROR(
        clients[0].SendRaw(RawSearchRequest(bodies[p], trace_id)));
    CIRANK_ASSIGN_OR_RETURN(serve::HttpClientResponse response,
                            clients[0].ReadResponse());
    if (response.status_code != 200) {
      return Status::Internal("warm-up request failed: " + response.body);
    }
  }
  const QueryCacheStats cache_before = facade.cache_stats();

  // Timed phase: per round, each client sends its requests back to back
  // (closed loop), then one click is recorded in process.
  std::vector<ClientLog> logs(kClients);
  std::vector<int64_t> client_tracks(kClients);
  for (int c = 0; c < kClients; ++c) {
    logs[c].exchanges.reserve(schedule[c].size());
    client_tracks[c] = trace.NewTrack();
  }
  std::vector<Status> click_status;
  Timer phase;
  {
    ThreadPool client_pool(kClients);
    for (int r = 0; r < rounds; ++r) {
      for (int c = 0; c < kClients; ++c) {
        client_pool.Submit([&, c, r] {
          for (int j = 0; j < kRequestsPerClient; ++j) {
            const int i = r * kRequestsPerClient + j;
            const uint64_t trace_id =
                config.trace ? (static_cast<uint64_t>(c + 1) << 32) +
                                   static_cast<uint64_t>(i + 1)
                             : 0;
            const int pool_index = schedule[c][i];
            obs::TraceSpan span =
                trace.Span("bench.rtt", trace_id, client_tracks[c]);
            Timer timer;
            Result<serve::HttpClientResponse> response =
                Status::Internal("not sent");
            if (Status sent = clients[c].SendRaw(
                    RawSearchRequest(bodies[pool_index], trace_id));
                sent.ok()) {
              response = clients[c].ReadResponse();
            }
            const double rtt_ms = timer.ElapsedMillis();
            span.End();
            const std::string no_body;
            logs[c].Record(pool_index, r, rtt_ms,
                           response.ok() ? response->status_code : 0,
                           response.ok() ? response->body : no_body);
          }
        });
      }
      client_pool.WaitIdle();
      obs::TraceSpan span = trace.Span("bench.click");
      Timer timer;
      click_status.push_back(facade.RecordClick(clicks[r]));
      layers.click_us.push_back(MicrosSince(timer));
    }
  }
  const double phase_s = phase.ElapsedSeconds();
  const double peak_rss_mib = PeakRssMib();
  const QueryCacheStats cache_after = facade.cache_stats();
  clients.clear();
  server.Stop();

  RunReport report;
  for (const Status& status : click_status) {
    if (!status.ok()) {
      report.violations.push_back("click failed: " + status.ToString());
    }
  }
  // Reference answers: the same query and options on an engine that has
  // no result cache and has seen no clicks.
  CiRankEngine::Builder reference_builder(graph);
  reference_builder.WithCache(QueryCacheOptions{0, 1})
      .WithMetricsEnabled(false)
      .WithBounds(&star);
  CIRANK_ASSIGN_OR_RETURN(const CiRankEngine reference_engine,
                          reference_builder.Build());
  const ReferenceScorer reference(graph, engine.model().importance_vector(),
                                  engine.model().params());
  AnswerCheckContext ctx;
  ctx.graph = &graph;
  ctx.reference = &reference;
  ctx.k = kTopK;
  ctx.max_diameter = kDiameter;
  SearchOverrides overrides;
  overrides.WithK(kTopK).WithMaxDiameter(kDiameter).WithMaxExpansions(
      kServeExpansions);
  std::vector<std::string> direct(pool.size());
  std::vector<std::vector<RankedAnswer>> direct_answers(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    Result<std::vector<RankedAnswer>> answers =
        reference_engine.Search(pool[p].query, overrides);
    if (!answers.ok()) {
      report.violations.push_back("direct search failed: " +
                                  answers.status().ToString());
      continue;
    }
    const std::string problem =
        CheckAnswerList(ctx, pool[p].query, ToViews(*answers));
    if (!problem.empty()) {
      report.violations.push_back("query" + QueryText(pool[p].query) + ": " +
                                  problem);
    }
    direct[p] = serve::RenderAnswersJson(*answers, graph);
    direct_answers[p] = std::move(*answers);
  }

  std::vector<double> rtt_ms, hit_ms, miss_ms;
  int64_t client_hits = 0;
  for (const ClientLog& log : logs) {
    for (const std::string& problem : log.problems) {
      report.violations.push_back(problem);
    }
    // Every response matched the first one for its query; that one must
    // match the direct search.
    for (const auto& [p, answers] : log.answers) {
      const std::string problem = CheckServedAnswers(answers, direct[p]);
      if (!problem.empty()) {
        report.violations.push_back("query" + QueryText(pool[p].query) +
                                    ": " + problem);
      }
    }
    for (const Exchange& ex : log.exchanges) {
      ++report.attempted;
      rtt_ms.push_back(ex.rtt_ms);
      if (!ex.ok) {
        ++report.failed;
        continue;
      }
      if (config.trace) {
        SearchStats served;
        served.from_cache = ex.from_cache;
        TimeServeCodec(bodies[ex.pool_index], direct_answers[ex.pool_index],
                       served, graph, &layers);
      }
      if (ex.from_cache) {
        ++client_hits;
        hit_ms.push_back(ex.rtt_ms);
        continue;
      }
      miss_ms.push_back(ex.rtt_ms);
      Result<serve::JsonValue> stats = serve::ParseJson(ex.miss_stats);
      const serve::JsonValue* stages =
          stats.ok() ? stats->Find("stages") : nullptr;
      if (stages == nullptr) {
        report.violations.push_back("unparsable stats: " + ex.miss_stats);
        continue;
      }
      StageStats s;
      s.prepare_seconds = NumberField(*stages, "prepare_ms") / 1e3;
      s.expand_seconds = NumberField(*stages, "expand_ms") / 1e3;
      s.emit_seconds = NumberField(*stages, "emit_ms") / 1e3;
      s.candidates_generated =
          static_cast<int64_t>(NumberField(*stages, "candidates_generated"));
      s.candidates_pruned =
          static_cast<int64_t>(NumberField(*stages, "candidates_pruned"));
      s.candidates_merged =
          static_cast<int64_t>(NumberField(*stages, "candidates_merged"));
      s.bound_calls = static_cast<int64_t>(NumberField(*stages, "bound_calls"));
      s.arena_bytes = static_cast<size_t>(NumberField(*stages, "arena_bytes"));
      const bool exact = BoolField(*stats, "proven_optimal");
      // A fresh search that did not prove its answers ran out of
      // expansions (no deadline or candidate budget is set here).
      layers.core.Add(s, static_cast<int64_t>(NumberField(*stats, "popped")),
                      exact, !exact);
    }
  }
  if (std::string problem = CheckNoFailures(report.attempted, report.failed);
      !problem.empty()) {
    report.violations.push_back(problem);
  }
  layers.cache.hits = cache_after.hits - cache_before.hits;
  layers.cache.misses = cache_after.misses - cache_before.misses;
  layers.cache.invalidations =
      cache_after.invalidations - cache_before.invalidations;
  if (static_cast<uint64_t>(client_hits) != layers.cache.hits) {
    report.violations.push_back(
        "responses marked from_cache (" + std::to_string(client_hits) +
        ") differ from the cache's hit count (" +
        std::to_string(layers.cache.hits) + ")");
  }
  layers.hit_rtt_p50_ms = Quantile(hit_ms, 0.5);
  layers.miss_rtt_p50_ms = Quantile(miss_ms, 0.5);
  trace.CheckNesting("bench.rtt", &report.violations);
  CIRANK_RETURN_IF_ERROR(trace.Write(config.out_dir, config.workload));

  layers.traced_latency_p50_ms = config.trace ? Quantile(rtt_ms, 0.5) : 0.0;
  report.end_to_end = EndToEnd(rtt_ms, report.attempted - report.failed,
                               phase_s, setup_s, peak_rss_mib);
  report.per_layer = PerLayer(layers);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"imdb_star", "dblp_capped",
                                                 "serve_clicks"};
  return names;
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  if (config.seconds < 1) {
    return Status::InvalidArgument("--seconds must be at least 1");
  }
  if (config.workload == "imdb_star") return RunInProcess(config, kImdbStar);
  if (config.workload == "dblp_capped") {
    return RunInProcess(config, kDblpCapped);
  }
  if (config.workload == "serve_clicks") return RunServeClicks(config);
  return Status::InvalidArgument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
}  // namespace cirank
