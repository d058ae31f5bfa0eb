// perfbench: the repository's benchmark of the certified solve, the MPC
// simulation and the serving paths.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--work-dir DIR] [--trace-file FILE]
//
// Every workload runs three phases against the public library API, and
// every instance reaches the library only through its packed .mpcb image:
//
//   certified  .mpcb mmap load -> fractional solve -> round_best_of +
//              make_maximal -> boost_to_one_plus_eps -> Dinic certificate;
//   mpc        the naive and phased MPC drivers (kInProcess transport);
//   serving    an AllocationService with one writer (closed loop of ~10-op
//              MutationSets) and one reader (closed loop of fixed-size
//              query bursts on the latest snapshot).
//
// Each workload gives most of its time to the phase it is about and runs
// the other two on small instances, so that every end-to-end metric exists
// on every workload (see README.md). `--trace 0` prints the end-to-end
// metrics; `--trace 1` runs the same phases with spans around each library
// call, then times each layer's public functions standalone, and prints the
// per-layer metrics. The last stdout line is the JSON result.
#include "host_speed.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include "alloc/api.hpp"
#include "mpc/exponentiation.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

using namespace mpcalloc;

constexpr double kBoostEpsilon = 0.1;
/// Set-up repeats at least kMinSetupReps times and until kSetupSeconds have
/// passed (at most kMaxSetupReps), so a set-up of a few milliseconds still
/// gets a steady median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 50;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinPipelineReps = 3;
/// The MPC companion feeds only counts, which one repetition determines.
constexpr std::size_t kMinCompanionReps = 1;
constexpr std::size_t kMinGenerations = 200;
/// Reads per query burst: the burst of the repository's serving traffic
/// model (bench/bench_serving.cpp).
constexpr std::size_t kQueryBurst = 64;
/// A window of query bursts shorter than this (the last, cut-off window of a
/// slice) is dropped rather than summarised.
constexpr std::size_t kMinWindowBursts = 1000;
/// Distinct random vertices the reader cycles through, so consecutive
/// bursts do not re-read the same few cache lines.
constexpr std::size_t kQueryPool = 1 << 16;
/// How often the serving threads sample the host's speed: 0.1 s, about 4%
/// of their time, because a tenant's load on the core changes within 0.1 s
/// to seconds.
constexpr std::int64_t kSpeedSamplePeriodNs = 100'000'000;
constexpr std::size_t kPhaseLength = 2;      ///< explicit B for kMpcPhased
constexpr std::size_t kSamplesPerGroup = 8;  ///< t, the MPC default, pinned
constexpr double kAlpha = 0.7;

/// A named error for a refused environment or build.
class EnvironmentError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------------

struct Family {
  enum class Kind { kForest, kCore } kind = Kind::kForest;
  std::size_t num_left = 0;  ///< forest: |L|; core: the core size
  std::size_t num_right = 0; ///< forest: |R|; core: the load factor
  std::uint32_t lambda = 1;  ///< forest: arboricity; core: copies
  std::uint32_t cap_lo = 1;
  std::uint32_t cap_hi = 1;
};

AllocationInstance generate(const Family& f, std::uint64_t seed) {
  if (f.kind == Family::Kind::kCore) {
    return oversubscribed_core_instance(f.num_left, f.num_right, f.lambda);
  }
  Xoshiro256pp rng(seed);
  AllocationInstance instance;
  instance.graph = union_of_forests(f.num_left, f.num_right, f.lambda, rng);
  instance.capacities =
      uniform_capacities(f.num_right, f.cap_lo, f.cap_hi, rng);
  return instance;
}

/// Every option that selects a code path is set explicitly: one thread (the
/// sweeps showed no thread scaling on the measurement host), in-process MPC
/// exchange, kAuto frontier engine.
SolveOptions pinned(SolveMethod method, double epsilon, double lambda) {
  SolveOptions o;
  o.method = method;
  o.epsilon = epsilon;
  o.lambda = lambda;
  o.num_threads = 1;
  o.engine = RoundEngine::kAuto;
  o.transport = mpc::TransportKind::kInProcess;
  o.seed = 1;
  if (method == SolveMethod::kMpcNaive || method == SolveMethod::kMpcPhased ||
      method == SolveMethod::kSampled) {
    o.alpha = kAlpha;
    o.samples_per_group = kSamplesPerGroup;
  }
  if (method == SolveMethod::kMpcPhased || method == SolveMethod::kSampled) {
    o.phase_length = kPhaseLength;
  }
  if (method == SolveMethod::kSampled) {
    o.max_rounds = tau_for_arboricity(lambda, epsilon);
  }
  return o;
}

const char* span_name(SolveMethod m) {
  switch (m) {
    case SolveMethod::kMpcNaive: return "mpc.naive";
    case SolveMethod::kMpcPhased: return "mpc.phased";
    case SolveMethod::kSampled: return "mpc.sampled";
    default: return "alloc.solve";
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Primary { kCertified, kMpc, kServing };

struct Workload {
  std::string name;
  Primary primary = Primary::kCertified;
  Family certified;                    ///< unused for kServing
  std::vector<SolveOptions> methods;   ///< certified phase solves, last certified
  Family mpc;                          ///< unused for kMpc (certified is mpc)
  Family serving;
};

constexpr double kEpsilon = 0.25;

Workload make_workload(const std::string& name, bool tiny) {
  using K = Family::Kind;
  const auto forest = [](std::size_t nl, std::size_t nr, std::uint32_t lambda,
                         std::uint32_t lo, std::uint32_t hi) {
    return Family{K::kForest, nl, nr, lambda, lo, hi};
  };
  const std::size_t scale = tiny ? 64 : 1;
  // MPC instances keep their size in tiny runs: with B = 2 the phased
  // driver puts more than S = (input words)^0.7 words on one machine for
  // 10% of seeds at |L| = 1500 and 63% at |L| = 1050 (none in 300 seeds at
  // |L| = 4200).
  const Family mpc_family = forest(4'200, 1'400, 4, 1, 8);
  const Family serving_companion = forest(6000 / (tiny ? 4 : 1),
                                          3000 / (tiny ? 4 : 1), 2, 4, 8);
  const SolveOptions naive = pinned(SolveMethod::kMpcNaive, kEpsilon, 4.0);
  const SolveOptions phased = pinned(SolveMethod::kMpcPhased, kEpsilon, 4.0);

  Workload w;
  w.name = name;
  w.mpc = mpc_family;
  w.serving = serving_companion;
  if (name == "forest-adaptive") {
    w.primary = Primary::kCertified;
    w.certified = forest(187'500 / scale, 62'500 / scale, 4, 1, 8);
    w.methods = {pinned(SolveMethod::kAdaptive, kEpsilon, 0.0)};
  } else if (name == "core-fixed") {
    w.primary = Primary::kCertified;
    w.certified = tiny ? Family{K::kCore, 32, 4, 2, 1, 1}
                       : Family{K::kCore, 256, 4, 4, 1, 1};
    w.methods = {pinned(SolveMethod::kTwoPlusEps, kEpsilon,
                        static_cast<double>(w.certified.num_left))};
  } else if (name == "mpc-sim") {
    w.primary = Primary::kMpc;
    w.certified = mpc_family;
    w.methods = {naive, phased};
  } else if (name == "serving-churn") {
    w.primary = Primary::kServing;
    w.serving = forest(100'000 / scale, 50'000 / scale, 2, 4, 8);
    w.methods = {pinned(SolveMethod::kTwoPlusEps, kEpsilon, 2.0)};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (forest-adaptive, core-fixed, mpc-sim, "
                                "serving-churn)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
};

bool bitwise_equal(const SolveResult& a, const SolveResult& b) {
  return a.final_levels == b.final_levels && a.final_alloc == b.final_alloc &&
         a.allocation.x == b.allocation.x &&
         a.match_weight == b.match_weight &&
         a.rounds_executed == b.rounds_executed;
}

double elapsed_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Attaches a solve's work counts to its span.
void annotate(Span& s, const AllocationInstance& instance,
              const SolveResult& result) {
  s.arg("edges", static_cast<double>(instance.graph.num_edges()));
  s.arg("rounds", static_cast<double>(result.rounds_executed));
  s.arg("dense_rounds", static_cast<double>(result.stats.dense_rounds));
  s.arg("sparse_rounds", static_cast<double>(result.stats.sparse_rounds));
  s.arg("recomputed", static_cast<double>(result.stats.recomputed_left_total +
                                          result.stats.recomputed_right_total));
  if (result.mpc) {
    s.arg("mpc_rounds", static_cast<double>(result.mpc->mpc_rounds));
    s.arg("words", static_cast<double>(result.mpc->words_moved));
    s.arg("phases", static_cast<double>(result.phases));
    s.arg("max_ball_volume", static_cast<double>(result.mpc->max_ball_volume));
    s.arg("peak_machine_words",
          static_cast<double>(result.mpc->peak_machine_words));
    s.arg("host_record_updates",
          static_cast<double>(result.mpc->host_record_updates));
  }
}

// ---------------------------------------------------------------------------
// Certified path: one repetition
// ---------------------------------------------------------------------------

struct MpcNumbers {
  std::size_t rounds = 0;
  std::uint64_t words = 0;
  std::uint64_t peak_machine_words = 0;
};

struct CertifiedRep {
  double seconds = 0.0;  ///< load -> certificate, checks excluded
  double approx_ratio = 0.0;
  double frac_ratio = 0.0;
  std::size_t local_rounds = 0;
  std::uint64_t digest = 0;
  std::optional<MpcNumbers> naive;
  std::optional<MpcNumbers> phased;
  SolveResult last;  ///< the certified solve's result
};

/// Runs the certified path on `image` with `methods` (each solved and
/// checked; the last one rounded, boosted and certified). Throws on any
/// failed check. `rounding_seed` is fixed per run so every repetition must
/// reproduce the same digest. The time is scaled to the reference speed,
/// with a speed sample after each solve and after the certificate.
CertifiedRep certified_rep(const std::string& image,
                           const std::vector<SolveOptions>& methods,
                           std::uint64_t rounding_seed, const char* root,
                           HostSpeed& speed) {
  CertifiedRep rep;
  Span root_span(root);
  ScaledTimer timer(speed);
  std::int64_t t0 = now_ns();

  AllocationInstance instance;
  {
    Span s("graph.load");
    instance = load_instance_mmap(image);
    s.arg("edges", static_cast<double>(instance.graph.num_edges()));
  }
  timer.add(elapsed_s(t0));

  Fnv1a digest;
  for (const SolveOptions& options : methods) {
    t0 = now_ns();
    SolveResult result;
    {
      Span s(span_name(options.method));
      result = Solver(options).solve(instance);
      annotate(s, instance, result);
    }
    timer.add(elapsed_s(t0));
    timer.checkpoint();

    result.allocation.check_valid(instance);
    digest.add(result.allocation.x);
    digest.add(result.final_levels);
    if (result.mpc) {
      if (result.mpc->peak_machine_words > result.mpc->machine_words) {
        throw std::logic_error("MPC peak machine words exceed S");
      }
      (options.method == SolveMethod::kMpcNaive ? rep.naive : rep.phased) =
          MpcNumbers{result.mpc->mpc_rounds, result.mpc->words_moved,
                     result.mpc->peak_machine_words};
    }
    rep.last = std::move(result);
  }

  t0 = now_ns();
  Xoshiro256pp rng(rounding_seed);
  BestOfRoundingResult rounded;
  {
    Span s("alloc.round");
    rounded = round_best_of(instance, rep.last.allocation, rng);
    make_maximal(instance, rounded.best);
    s.arg("best_size", static_cast<double>(rounded.best.size()));
  }
  BoostResult boosted;
  {
    Span s("alloc.boost");
    boosted = boost_to_one_plus_eps(instance, rounded.best, kBoostEpsilon);
    std::size_t augmentations = 0;
    for (const std::size_t a : boosted.augmentations_per_iteration) {
      augmentations += a;
    }
    s.arg("iterations", static_cast<double>(boosted.iterations));
    s.arg("augmentations", static_cast<double>(augmentations));
  }
  CertifiedRatio cert;
  {
    Span s("flow.certify");
    cert = certified_integral_ratio(instance, boosted.allocation);
    s.arg("edges", static_cast<double>(instance.graph.num_edges()));
  }
  timer.add(elapsed_s(t0));
  timer.checkpoint();
  root_span.arg("edges", static_cast<double>(instance.graph.num_edges()));

  rounded.best.check_valid(instance);
  boosted.allocation.check_valid(instance);
  if (!cert.certificate_ok) throw std::logic_error("Dinic certificate failed");
  rep.approx_ratio = cert.ratio;
  rep.frac_ratio = approximation_ratio(cert.opt, rep.last.allocation.weight());
  const double eps = methods.back().epsilon;
  if (!(rep.frac_ratio <= 2.0 + 10.0 * eps)) {
    throw std::logic_error("frac_ratio " + std::to_string(rep.frac_ratio) +
                           " > 2+10eps");
  }
  if (!(rep.approx_ratio <= 1.0 + kBoostEpsilon)) {
    throw std::logic_error("approx_ratio " + std::to_string(rep.approx_ratio) +
                           " > 1+eps_boost");
  }
  digest.add(rounded.best.edges);
  digest.add(boosted.allocation.edges);
  rep.digest = digest.value();
  rep.local_rounds = rep.last.rounds_executed;
  rep.seconds = timer.seconds();
  return rep;
}

/// Repetitions of the certified path on one image, each timed at the
/// reference host speed. In a traced run even repetitions record spans and
/// odd ones do not, so the tracing overhead is the difference of their
/// medians.
struct CertifiedPhase {
  CertifiedPhase(std::string image_path, std::vector<SolveOptions> solves,
                 std::uint64_t seed, const char* root_name, HostSpeed& host)
      : image(std::move(image_path)),
        methods(std::move(solves)),
        rounding_seed(seed),
        root(root_name),
        speed(host) {}

  std::string image;
  std::vector<SolveOptions> methods;
  std::uint64_t rounding_seed;
  const char* root;
  HostSpeed& speed;

  std::vector<double> seconds;
  std::vector<double> traced_seconds;
  std::vector<CertifiedRep> reps;  ///< successful reps (results dropped)
  std::size_t attempts = 0;

  void run_once(bool trace, Outcome& outcome) {
    const bool traced = trace && attempts % 2 == 0;
    ++attempts;
    TraceRecorder::instance().set_enabled(traced);
    ++outcome.attempted;
    try {
      CertifiedRep r = certified_rep(image, methods, rounding_seed, root, speed);
      if (!reps.empty() && reps.front().digest != r.digest) {
        throw std::logic_error("digest differs between repetitions");
      }
      (traced ? traced_seconds : seconds).push_back(r.seconds);
      r.last = SolveResult{};
      reps.push_back(std::move(r));
    } catch (const std::exception& e) {
      outcome.fail(std::string(root) + ": " + e.what());
    }
    TraceRecorder::instance().set_enabled(trace);
  }
};

// ---------------------------------------------------------------------------
// Serving path
// ---------------------------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to `cpu`; no-op when `cpu` is negative. The
/// serving writer and reader each get a CPU of their own: left to the
/// scheduler they sometimes share one, and a generation that waits out the
/// other thread's 4 ms time slice lands in the p95.
void pin_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// ~10 operations: up to 4 edge removals, 4 edge insertions, 2 capacity
/// changes, all valid against `instance`.
serve::MutationSet make_batch(const AllocationInstance& instance,
                              Xoshiro256pp& rng) {
  const auto edges = instance.graph.edges();
  serve::MutationSet batch;
  std::set<std::pair<Vertex, Vertex>> removed;
  std::set<std::pair<Vertex, Vertex>> added;
  for (std::size_t i = 0; i < 4 && !edges.empty(); ++i) {
    const Edge e = edges[rng.uniform(edges.size())];
    if (removed.insert({e.u, e.v}).second) batch.remove_edges.push_back(e);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const auto u = static_cast<Vertex>(rng.uniform(instance.graph.num_left()));
    const auto v = static_cast<Vertex>(rng.uniform(instance.graph.num_right()));
    bool exists = false;
    for (const Incidence& inc : instance.graph.left_neighbors(u)) {
      exists = exists || inc.to == v;
    }
    if ((!exists || removed.contains({u, v})) && added.insert({u, v}).second) {
      batch.add_edges.push_back(Edge{u, v});
    }
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const auto v = static_cast<Vertex>(rng.uniform(instance.graph.num_right()));
    batch.set_capacities.push_back(
        {v, static_cast<std::uint32_t>(4 + rng.uniform(5))});
  }
  return batch;
}

/// The serving phase, run in slices. During a slice this thread is the
/// writer (a closed loop of mutation batches) and one reader thread runs a
/// closed loop of query bursts on the latest snapshot. Both threads time
/// their operations at the reference host speed, each sampling it on its own
/// CPU every kSpeedSamplePeriodNs: the writer scales each generation by the
/// samples before and after it, the reader each burst by the last sample.
class ServingPhase {
 public:
  ServingPhase(serve::AllocationService& service, std::uint64_t seed,
               HostSpeed& speed, int reader_cpu)
      : service_(service),
        speed_(speed),
        reader_cpu_(reader_cpu),
        batch_rng_(seed ^ 0xba7c4e5u),
        generation_(service.generation()) {
    const std::size_t num_right =
        service.snapshot()->instance().graph.num_right();
    burst_pool_.resize(kQueryPool);
    Xoshiro256pp rng(seed ^ 0x51ed2701u);
    for (Vertex& v : burst_pool_) {
      v = static_cast<Vertex>(rng.uniform(num_right));
    }
  }

  std::vector<double> gen_ms;
  std::vector<double> traced_gen_ms;
  /// The snapshot published at generation kMinGenerations: the certified
  /// phase of serving-churn runs on it, so its digest repeats across runs.
  std::shared_ptr<const serve::AllocationSnapshot> pinned;

  [[nodiscard]] std::size_t generations() const { return generations_; }
  [[nodiscard]] std::uint64_t bursts() const { return bursts_; }
  /// Median and 95th percentile of the burst latency in each window
  /// between two of the reader's speed samples (about 0.1 s).
  [[nodiscard]] const std::vector<double>& window_query_p50_us() const {
    return window_p50_us_;
  }
  [[nodiscard]] const std::vector<double>& window_query_p95_us() const {
    return window_p95_us_;
  }

  /// Writes until `deadline_ns` and at least `min_generations` batches.
  void run_slice(std::int64_t deadline_ns, std::size_t min_generations,
                 bool trace, Outcome& outcome) {
    std::atomic<bool> stop{false};
    std::uint64_t reader_failures = 0;
    std::uint64_t reader_bursts = 0;
    std::thread reader([&] {
      pin_thread(reader_cpu_);
      double factor = kReferenceSeconds / reader_speed_.sample();
      std::int64_t sampled_ns = now_ns();
      while (!stop.load(std::memory_order_relaxed)) {
        reader_failures += query_burst(factor) ? 0 : 1;
        ++reader_bursts;
        if (now_ns() - sampled_ns > kSpeedSamplePeriodNs) {
          close_query_window();
          factor = kReferenceSeconds / reader_speed_.sample();
          sampled_ns = now_ns();
        }
      }
      close_query_window();
    });
    // Generations from `untraced`/`traced` on are not yet scaled.
    std::size_t untraced = gen_ms.size();
    std::size_t traced = traced_gen_ms.size();
    double before = speed_.sample();
    std::int64_t sampled_ns = now_ns();
    const auto scale_pending = [&] {
      const double after = speed_.sample();
      const double factor = HostSpeed::factor(before, after);
      for (; untraced < gen_ms.size(); ++untraced) gen_ms[untraced] *= factor;
      for (; traced < traced_gen_ms.size(); ++traced) {
        traced_gen_ms[traced] *= factor;
      }
      before = after;
      sampled_ns = now_ns();
    };
    for (std::size_t g = 0; g < min_generations || now_ns() < deadline_ns;
         ++g) {
      write_one(trace, outcome);
      if (now_ns() - sampled_ns > kSpeedSamplePeriodNs) scale_pending();
    }
    TraceRecorder::instance().set_enabled(trace);
    stop.store(true);
    reader.join();
    if (untraced < gen_ms.size() || traced < traced_gen_ms.size()) {
      scale_pending();
    }
    outcome.attempted += reader_bursts;
    for (std::uint64_t i = 0; i < reader_failures; ++i) {
      outcome.fail("query burst returned a value outside [0, C_v]");
    }
  }

 private:
  void write_one(bool trace, Outcome& outcome) {
    const bool traced = trace && generations_ % 2 == 0;
    TraceRecorder::instance().set_enabled(traced);
    const serve::MutationSet batch =
        make_batch(service_.snapshot()->instance(), batch_rng_);
    ++outcome.attempted;
    ++generations_;
    try {
      const std::int64_t t0 = now_ns();
      std::shared_ptr<const serve::AllocationSnapshot> snap;
      {
        Span s("serve.apply");
        snap = service_.apply(batch);
        s.arg("warm", snap->warm().used ? 1.0 : 0.0);
        s.arg("recompute_volume",
              static_cast<double>(snap->warm().recompute_volume));
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      (traced ? traced_gen_ms : gen_ms).push_back(ms);
      if (snap->generation() != generation_ + 1) {
        throw std::logic_error("generation did not advance by one");
      }
      generation_ = snap->generation();
      if (!(snap->result().match_weight > 0.0)) {
        throw std::logic_error("published snapshot has no weight");
      }
      if (generations_ == kMinGenerations) pinned = snap;
    } catch (const std::exception& e) {
      outcome.fail(std::string("serve.apply: ") + e.what());
    }
  }

  /// One timed burst, scaled by `factor`, added to the current window; false
  /// when a value is outside [0, C_v].
  bool query_burst(double factor) {
    const std::span<const Vertex> burst(burst_pool_.data() + cursor_,
                                        kQueryBurst);
    cursor_ = (cursor_ + kQueryBurst) % burst_pool_.size();
    const std::shared_ptr<const serve::AllocationSnapshot> snap =
        service_.snapshot();
    const std::int64_t t0 = now_ns();
    const std::vector<double> values = snap->query_allocations(burst);
    window_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3 * factor);
    ++bursts_;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const double cap = snap->instance().capacities[burst[i]];
      if (!(values[i] >= 0.0 && values[i] <= cap)) return false;
    }
    return true;
  }

  /// Summarises the current window of bursts. A window's percentiles are
  /// taken over the ~10^5 bursts of 0.1 s; the metrics are their medians
  /// over the run, so one window with a host hiccup does not move them.
  void close_query_window() {
    if (window_us_.size() >= kMinWindowBursts) {
      window_p50_us_.push_back(select_quantile(window_us_, 0.5));
      window_p95_us_.push_back(select_quantile(window_us_, 0.95));
    }
    window_us_.clear();
  }

  serve::AllocationService& service_;
  HostSpeed& speed_;
  int reader_cpu_;
  HostSpeed reader_speed_;  ///< reader thread only
  Xoshiro256pp batch_rng_;
  std::uint64_t generation_;
  std::size_t generations_ = 0;
  std::vector<Vertex> burst_pool_;
  std::size_t cursor_ = 0;         ///< reader thread only
  std::uint64_t bursts_ = 0;       ///< reader thread only
  std::vector<double> window_us_;  ///< reader thread only
  std::vector<double> window_p50_us_;
  std::vector<double> window_p95_us_;
};

// ---------------------------------------------------------------------------
// Standalone layer timings (traced run only)
// ---------------------------------------------------------------------------

/// Repeats `body` inside a span named `name` until `budget_s` is spent,
/// between `min_reps` and `max_reps` times; `work` is the span's work count.
void repeat_span(const char* name, const char* work_key, double work,
                 double budget_s, std::size_t min_reps, std::size_t max_reps,
                 const std::function<void()>& body) {
  const std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < max_reps; ++r) {
    if (r >= min_reps && elapsed_s(t0) > budget_s) break;
    Span s(name);
    s.arg(work_key, work);
    body();
  }
}

void time_graph_alloc_flow_layers(const std::string& image,
                                  const SolveOptions& exact,
                                  Outcome& outcome) {
  Span root("layers");
  const AllocationInstance instance = load_instance_mmap(image);
  const BipartiteGraph& g = instance.graph;
  const auto m = static_cast<double>(g.num_edges());
  const auto n_right = static_cast<double>(g.num_right());

  repeat_span("graph.validate", "edges", m, 0.5, 3, 9, [&] {
    instance.graph.validate();
    instance.validate();
  });

  SolveResult solved;
  for (std::size_t r = 0; r < 3; ++r) {
    Span s("alloc.solve");
    solved = Solver(exact).solve(instance);
    annotate(s, instance, solved);
  }
  const std::vector<std::int32_t>& levels = solved.final_levels;
  const std::size_t round = std::max<std::size_t>(solved.rounds_executed, 1);
  const PowTable pow_table(exact.epsilon);

  LeftAggregate agg;
  repeat_span("alloc.left_aggregate", "edges", m, 0.3, 3, 15, [&] {
    compute_left_aggregate_into(g, levels, pow_table, 1, agg);
  });
  std::vector<double> alloc;
  repeat_span("alloc.alloc", "edges", m, 0.3, 3, 15, [&] {
    compute_alloc_into(g, levels, agg, pow_table, 1, alloc);
  });
  std::vector<std::int32_t> stepped;
  repeat_span("alloc.level_update", "vertices", n_right, 0.2, 3, 15, [&] {
    stepped = levels;
    (void)apply_level_update(std::span<const std::uint32_t>(instance.capacities),
                             alloc, exact.epsilon, round, UnitThreshold{},
                             stepped, 1);
  });
  TerminationScratch scratch;
  repeat_span("alloc.termination", "edges", m, 0.3, 3, 15, [&] {
    (void)check_termination(instance, levels, alloc, round, exact.epsilon,
                            scratch, 1);
  });
  FractionalAllocation materialized;
  repeat_span("alloc.materialize", "edges", m, 0.3, 3, 15, [&] {
    materialized = materialize_allocation(instance, levels, alloc, pow_table, 1);
  });
  try {
    materialized.check_valid(instance);
  } catch (const std::exception& e) {
    outcome.fail(std::string("alloc.materialize: ") + e.what());
  }
  ++outcome.attempted;
  CertifiedOptimum opt;
  repeat_span("flow.oracle", "edges", m, 0.5, 1, 5,
              [&] { opt = certified_optimal_value(instance); });
  ++outcome.attempted;
  if (!opt.certificate_ok) outcome.fail("flow.oracle: certificate failed");
}

/// kSampled runs with the phased driver's B, t, tau and seed (both come from
/// `pinned`), so it draws the same subgraphs.
void time_mpc_layers(const std::string& image, Outcome& outcome) {
  Span root("layers");
  const AllocationInstance instance = load_instance_mmap(image);
  SolveOptions sampled = pinned(SolveMethod::kSampled, kEpsilon, 4.0);
  std::vector<std::vector<std::vector<std::uint32_t>>> subgraphs;
  sampled.on_phase_subgraph =
      [&](const std::vector<std::vector<std::uint32_t>>& adjacency) {
        subgraphs.push_back(adjacency);
      };
  repeat_span("mpc.sampled", "edges",
              static_cast<double>(instance.graph.num_edges()), 0.3, 2, 9, [&] {
                subgraphs.clear();
                (void)Solver(sampled).solve(instance);
              });

  // The phased driver's cluster: S = (input words)^alpha, as in its own
  // accounting (2 words per edge plus one per vertex).
  const std::uint64_t input_words =
      2 * static_cast<std::uint64_t>(instance.graph.num_edges()) +
      instance.graph.num_vertices();
  ++outcome.attempted;
  try {
    std::size_t balls = 0;
    for (const auto& adjacency : subgraphs) balls += adjacency.size();
    repeat_span("mpc.collect_balls", "vertices", static_cast<double>(balls),
                0.3, 3, 15, [&] {
                  mpc::Cluster cluster = mpc::Cluster::for_input(input_words, kAlpha);
                  cluster.set_transport_kind(mpc::TransportKind::kInProcess);
                  cluster.set_num_threads(1);
                  for (const auto& adjacency : subgraphs) {
                    (void)mpc::collect_balls(
                        cluster, adjacency,
                        static_cast<std::uint32_t>(kPhaseLength));
                  }
                });
  } catch (const std::exception& e) {
    outcome.fail(std::string("mpc.collect_balls: ") + e.what());
  }

  ++outcome.attempted;
  try {
    mpc::Cluster cluster = mpc::Cluster::for_input(input_words, kAlpha);
    cluster.set_transport_kind(mpc::TransportKind::kInProcess);
    cluster.set_num_threads(1);
    std::vector<mpc::Word> flat;
    flat.reserve(2 * instance.graph.num_edges());
    for (const Edge& e : instance.graph.edges()) {
      flat.push_back(e.u);
      flat.push_back(e.v);
    }
    mpc::DistVec data = cluster.scatter(flat, 2);
    const std::size_t records = data.num_records();
    const std::size_t machines = cluster.num_machines();
    // Each record moves to the machine after its block's owner, so every
    // machine sends and receives one block.
    std::vector<std::uint32_t> destination(records);
    for (std::size_t i = 0; i < records; ++i) {
      destination[i] =
          static_cast<std::uint32_t>((i * machines / records + 1) % machines);
    }
    repeat_span("mpc.shuffle", "words", static_cast<double>(flat.size()), 0.3,
                3, 30, [&] { cluster.shuffle(data, destination); });
    if (data.gather().size() != flat.size()) {
      throw std::logic_error("shuffle lost records");
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("mpc.shuffle: ") + e.what());
  }
}

void time_serve_layers(const serve::AllocationService& service,
                       std::uint64_t seed, double epsilon, Outcome& outcome) {
  Span root("layers");
  const auto snap = service.snapshot();
  Xoshiro256pp rng(seed ^ 0x5e7e1a7e5u);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < 40 && (i < 5 || elapsed_s(t0) < 1.0); ++i) {
    const serve::MutationSet batch = make_batch(snap->instance(), rng);
    ++outcome.attempted;
    try {
      std::optional<serve::MutationApplyResult> delta;
      {
        Span s("serve.apply_mutations");
        s.arg("edges", static_cast<double>(snap->instance().graph.num_edges()));
        delta = serve::apply_mutations(snap->instance(), batch);
      }
      TrajectoryTape tape;
      serve::WarmRestartStats stats;
      SolveResult warm;
      {
        Span s("serve.warm_solve");
        warm = serve::warm_solve(delta->instance, snap->result(), snap->tape(),
                                 *delta, epsilon, 1, &tape, stats);
        s.arg("recompute_volume", static_cast<double>(stats.recompute_volume));
      }
      if (warm.final_alloc.size() != delta->instance.graph.num_right()) {
        throw std::logic_error("warm_solve returned a mis-sized alloc");
      }
    } catch (const std::exception& e) {
      outcome.fail(std::string("serve layers: ") + e.what());
    }
  }
  std::vector<Vertex> all(snap->instance().graph.num_right());
  for (std::size_t v = 0; v < all.size(); ++v) all[v] = static_cast<Vertex>(v);
  repeat_span("serve.query", "vertices", static_cast<double>(all.size()), 0.2,
              5, 50, [&] { (void)snap->query_allocations(all); });
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the recorded spans
// ---------------------------------------------------------------------------

class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
    for (std::size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
  }

  /// Name of the outermost span enclosing `s` (itself when a root).
  [[nodiscard]] const std::string& root_of(const SpanRecord& s) const {
    const SpanRecord* cur = &s;
    while (cur->parent != 0) {
      const auto it = by_id_.find(cur->parent);
      if (it == by_id_.end()) break;
      cur = &spans_[it->second];
    }
    return cur->name;
  }

  /// Spans named `name`, optionally only those not under root `exclude`.
  [[nodiscard]] std::vector<const SpanRecord*> named(
      const std::string& name, const std::string& exclude = "") const {
    std::vector<const SpanRecord*> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name && (exclude.empty() || root_of(s) != exclude)) {
        out.push_back(&s);
      }
    }
    return out;
  }

  [[nodiscard]] double median_ms(const std::string& name,
                                 const std::string& exclude = "") const {
    std::vector<double> v;
    for (const SpanRecord* s : named(name, exclude)) v.push_back(s->dur_ns * 1e-6);
    return median(v);
  }
  /// Median of duration / work count, in ns per unit of `work_key`.
  [[nodiscard]] double median_ns_per(const std::string& name,
                                     const std::string& work_key,
                                     const std::string& exclude = "") const {
    std::vector<double> v;
    for (const SpanRecord* s : named(name, exclude)) {
      const double work = s->arg(work_key);
      if (work > 0) v.push_back(static_cast<double>(s->dur_ns) / work);
    }
    return median(v);
  }
  /// `key` of the last span named `name` (0 when none).
  [[nodiscard]] double last_arg(const std::string& name, const std::string& key,
                                const std::string& exclude = "") const {
    const auto spans = named(name, exclude);
    return spans.empty() ? 0.0 : spans.back()->arg(key);
  }

 private:
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::size_t> by_id_;
};

// ---------------------------------------------------------------------------
// Environment pinning and host facts
// ---------------------------------------------------------------------------

void refuse_unpinned_environment() {
  for (const char* var : {"MPCALLOC_THREADS", "MPCALLOC_TRANSPORT",
                          "MPCALLOC_FORCE_DENSE", "MPCALLOC_FORCE_SPARSE"}) {
    if (std::getenv(var) != nullptr) {
      throw EnvironmentError(std::string("EnvironmentNotPinned: ") + var +
                             " is set; unset it, the benchmark pins every "
                             "solver option itself");
    }
  }
  // The driver and the library are built in one CMake package with one
  // build type and one set of flags, so this guard covers both.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  throw EnvironmentError(
      "UnoptimizedBuild: the benchmark was compiled without optimisation or "
      "without NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release");
#endif
}

/// Fixes glibc's mmap threshold at its initial 128 KiB, so every large
/// block is a fresh mapping, returned when freed. Left adaptive, the
/// threshold rises at the first large free and later large blocks come from
/// the heap, whose fragmentation depends on how the phases happened to
/// interleave: two ten-run sets of core-fixed had peak-RSS medians of 149 and
/// 200 MiB; with the threshold fixed, ten runs stayed within 110-112 MiB.
void pin_allocator() {
  if (mallopt(M_MMAP_THRESHOLD, 128 * 1024) != 1) {
    throw EnvironmentError("AllocatorNotPinned: mallopt failed");
  }
}

std::string host_facts() {
  std::ostringstream out;
  out << "host: nproc=" << std::thread::hardware_concurrency()
      << " online_cpus=" << sysconf(_SC_NPROCESSORS_ONLN)
      << " compiler=\"" << __VERSION__ << "\" build_type=" << PERFBENCH_BUILD_TYPE
      << " threads=1"
      << " transport=inprocess engine=auto mmap_threshold=128KiB";
  return out.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--size") a.tiny = value == "tiny";
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--trace-file") a.trace_file = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int run(const Args& args) {
  refuse_unpinned_environment();
  pin_allocator();
  // The main thread (certified phase, set-up, serving writer) keeps the
  // first allowed CPU; the serving reader takes the second, if there is one.
  const std::vector<int> cpus = allowed_cpus();
  pin_thread(cpus.empty() ? -1 : cpus.front());
  const int reader_cpu = cpus.size() < 2 ? -1 : cpus[1];
  const Workload w = make_workload(args.workload, args.tiny);
  std::cout << host_facts() << "\n";
  TraceRecorder::instance().set_enabled(args.trace);

  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  const std::string tag = w.name + "-" + std::to_string(getpid());
  const std::string certified_image =
      (fs::path(args.work_dir) / (tag + "-certified.mpcb")).string();
  const std::string mpc_image =
      (fs::path(args.work_dir) / (tag + "-mpc.mpcb")).string();
  const std::string serving_image =
      (fs::path(args.work_dir) / (tag + "-serving.mpcb")).string();
  const std::string final_image =
      (fs::path(args.work_dir) / (tag + "-final.mpcb")).string();
  struct Cleanup {
    std::vector<std::string> paths;
    ~Cleanup() {
      for (const auto& p : paths) {
        std::error_code ec;
        fs::remove(p, ec);
      }
    }
  } cleanup{{certified_image, mpc_image, serving_image, final_image}};

  Outcome outcome;
  const bool has_certified_family = w.primary != Primary::kServing;
  const bool mpc_companion = w.primary != Primary::kMpc;

  // ---- set-up: generate + pack every image (+ serving generation 0) ----
  serve::ServiceOptions service_options;
  service_options.solve =
      pinned(SolveMethod::kTwoPlusEps, kEpsilon, w.serving.lambda);
  std::unique_ptr<serve::AllocationService> service;
  HostSpeed speed;
  std::vector<double> setup_s;
  const std::int64_t setup_start = now_ns();
  for (std::size_t rep = 0;
       rep < kMinSetupReps ||
       (rep < kMaxSetupReps && elapsed_s(setup_start) < kSetupSeconds);
       ++rep) {
    service.reset();
    ScaledTimer timer(speed);
    {
      Span root("setup");
      const std::int64_t t0 = now_ns();
      std::vector<std::pair<std::string, AllocationInstance>> images;
      {
        Span s("graph.generate");
        double edges = 0;
        if (has_certified_family) {
          images.emplace_back(certified_image, generate(w.certified, args.seed));
        }
        if (mpc_companion) {
          images.emplace_back(mpc_image, generate(w.mpc, args.seed + 1));
        }
        images.emplace_back(serving_image, generate(w.serving, args.seed + 2));
        for (const auto& [path, inst] : images) edges += inst.graph.num_edges();
        s.arg("edges", edges);
      }
      {
        Span s("graph.pack");
        double edges = 0;
        for (const auto& [path, inst] : images) {
          save_instance_mpcb(path, inst);
          edges += inst.graph.num_edges();
        }
        s.arg("edges", edges);
      }
      images.clear();
      {
        Span s("serve.cold_start");
        service = std::make_unique<serve::AllocationService>(
            load_instance_mmap(serving_image), service_options);
      }
      timer.add(elapsed_s(t0));
    }
    timer.checkpoint();
    setup_s.push_back(timer.seconds());
  }

  const std::uint64_t rounding_seed = args.seed * 0x9e3779b97f4a7c15ULL + 7;
  CertifiedPhase certified{
      has_certified_family ? certified_image : final_image, w.methods,
      rounding_seed, "pipeline", speed};
  CertifiedPhase mpc_phase{mpc_image,
                           {pinned(SolveMethod::kMpcNaive, kEpsilon, 4.0),
                            pinned(SolveMethod::kMpcPhased, kEpsilon, 4.0)},
                           rounding_seed, "companion", speed};
  ServingPhase serving(*service, args.seed, speed, reader_cpu);

  // A cold solve of the snapshot's instance, through its .mpcb image, must
  // equal the snapshot's warm result bit for bit.
  const auto check_warm_equals_cold =
      [&](const serve::AllocationSnapshot& snap, const std::string& path) {
        ++outcome.attempted;
        try {
          save_instance_mpcb(path, snap.instance());
          const AllocationInstance reloaded = load_instance_mmap(path);
          snap.result().allocation.check_valid(reloaded);
          const SolveResult cold =
              Solver(service_options.solve).solve(reloaded);
          if (!bitwise_equal(cold, snap.result())) {
            throw std::logic_error("warm result differs from a cold solve");
          }
        } catch (const std::exception& e) {
          outcome.fail("generation " + std::to_string(snap.generation()) +
                       ": " + e.what());
        }
      };

  // serving-churn certifies the generation pinned at kMinGenerations, so the
  // first serving slice publishes it before anything else runs.
  std::array<double, 3> spent = {0.0, 0.0, 0.0};  // certified, mpc, serving
  if (w.primary == Primary::kServing) {
    const std::int64_t t0 = now_ns();
    serving.run_slice(t0, kMinGenerations, args.trace, outcome);
    spent[2] = elapsed_s(t0);
    if (!serving.pinned) throw std::runtime_error("no generation was pinned");
    check_warm_equals_cold(*serving.pinned, final_image);
  }

  // The phases are interleaved in short units over the whole budget, each
  // kept near its share of the measured time, so every metric samples the
  // whole run rather than one stretch of it: a shared host's speed changes
  // for seconds at a time.
  const std::array<double, 3> share =
      w.primary == Primary::kCertified ? std::array{0.5, 0.1, 0.4}
      : w.primary == Primary::kMpc     ? std::array{0.7, 0.0, 0.3}
                                       : std::array{0.2, 0.1, 0.7};
  // Seconds of writes per serving unit: long enough that the few cache-cold
  // generations after a switch from another phase stay out of the p95.
  constexpr double kServingSlice = 1.0;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (;;) {
    const std::array<bool, 3> short_of_min = {
        certified.attempts < kMinPipelineReps,
        mpc_companion && mpc_phase.attempts < kMinCompanionReps,
        serving.generations() < kMinGenerations};
    const bool over = now_ns() >= end;
    if (over && !short_of_min[0] && !short_of_min[1] && !short_of_min[2]) break;
    std::size_t next = 3;
    for (std::size_t i = 0; i < 3; ++i) {
      if (share[i] == 0.0 || (over && !short_of_min[i])) continue;
      if (next == 3 || spent[i] / share[i] < spent[next] / share[next]) next = i;
    }
    const std::int64_t t0 = now_ns();
    if (next == 0) {
      certified.run_once(args.trace, outcome);
    } else if (next == 1) {
      mpc_phase.run_once(args.trace, outcome);
    } else {
      serving.run_slice(t0 + static_cast<std::int64_t>(kServingSlice * 1e9), 1,
                        args.trace, outcome);
    }
    spent[next] += elapsed_s(t0);
  }
  check_warm_equals_cold(*service->snapshot(), final_image + ".last");
  cleanup.paths.push_back(final_image + ".last");
  const CertifiedPhase& mpc_source = mpc_companion ? mpc_phase : certified;
  const auto counters = service->counters();

  std::vector<Metric> metrics;
  const auto report = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  if (!args.trace) {
    // Median over the repetitions of one CertifiedRep field.
    const auto over_reps = [](const CertifiedPhase& phase, auto field) {
      std::vector<double> v;
      for (const CertifiedRep& r : phase.reps) {
        if (const auto x = field(r)) v.push_back(static_cast<double>(*x));
      }
      return median(v);
    };
    using Opt = std::optional<double>;
    // Every timing is at the reference host speed (host_speed.hpp).
    report("setup_s", median(setup_s), "s");
    report("solve_s", median(certified.seconds), "s");
    report("approx_ratio",
           over_reps(certified,
                     [](const CertifiedRep& r) { return Opt(r.approx_ratio); }),
           "ratio");
    report("frac_ratio",
           over_reps(certified,
                     [](const CertifiedRep& r) { return Opt(r.frac_ratio); }),
           "ratio");
    report("local_rounds",
           over_reps(certified,
                     [](const CertifiedRep& r) { return Opt(r.local_rounds); }),
           "count");
    report("mpc_rounds",
           over_reps(mpc_source, [](const CertifiedRep& r) {
             return r.phased ? Opt(r.phased->rounds) : Opt();
           }),
           "count");
    report("mpc_rounds_naive",
           over_reps(mpc_source, [](const CertifiedRep& r) {
             return r.naive ? Opt(r.naive->rounds) : Opt();
           }),
           "count");
    report("mpc_words_naive",
           over_reps(mpc_source, [](const CertifiedRep& r) {
             return r.naive ? Opt(r.naive->words) : Opt();
           }),
           "words");
    report("mpc_peak_machine_words",
           over_reps(mpc_source, [](const CertifiedRep& r) {
             return r.naive && r.phased
                        ? Opt(std::max(r.naive->peak_machine_words,
                                       r.phased->peak_machine_words))
                        : Opt();
           }),
           "words");
    report("gen_p50_ms", quantile(serving.gen_ms, 0.5), "ms");
    report("gen_p95_ms", quantile(serving.gen_ms, 0.95), "ms");
    report("query_p50_us", median(serving.window_query_p50_us()), "us");
    report("query_p95_us", median(serving.window_query_p95_us()), "us");
    report("peak_rss_mib", peak_rss_mib(), "MiB");
    std::cout << "samples: solve=" << certified.seconds.size()
              << " mpc=" << mpc_source.reps.size()
              << " generations=" << serving.gen_ms.size()
              << " query_bursts=" << serving.bursts() << "\n";
    std::cout << "host_speed: reference kernel p10/p50/p90 "
              << quantile(speed.samples(), 0.1) * 1e3 << "/"
              << quantile(speed.samples(), 0.5) * 1e3 << "/"
              << quantile(speed.samples(), 0.9) * 1e3 << " ms over "
              << speed.samples().size() << " samples (reference "
              << kReferenceSeconds * 1e3 << " ms)\n";
    std::cout << "solve_reps_s:";
    for (const double v : certified.seconds) std::cout << " " << v;
    std::cout << "\n";
  } else {
    // Layer timings, standalone on the workload's instances.
    const std::string& layer_image =
        w.primary == Primary::kServing ? final_image : certified_image;
    SolveOptions exact = w.methods.front();
    if (w.primary == Primary::kMpc) {
      exact = pinned(SolveMethod::kTwoPlusEps, kEpsilon, 4.0);
    }
    time_graph_alloc_flow_layers(layer_image, exact, outcome);
    time_mpc_layers(mpc_companion ? mpc_image : certified_image, outcome);
    time_serve_layers(*service, args.seed, kEpsilon, outcome);
    TraceRecorder::instance().set_enabled(false);

    const SpanIndex spans(TraceRecorder::instance().spans());
    const std::string comp = "companion";
    report("graph.generate_ms", spans.median_ms("graph.generate"), "ms");
    report("graph.pack_ms", spans.median_ms("graph.pack"), "ms");
    report("graph.load_ms", spans.median_ms("graph.load", comp), "ms");
    report("graph.validate_ns_per_edge",
           spans.median_ns_per("graph.validate", "edges"), "ns/edge");
    report("alloc.left_aggregate_ns_per_edge",
           spans.median_ns_per("alloc.left_aggregate", "edges"), "ns/edge");
    report("alloc.alloc_ns_per_edge",
           spans.median_ns_per("alloc.alloc", "edges"), "ns/edge");
    report("alloc.level_update_ns_per_vertex",
           spans.median_ns_per("alloc.level_update", "vertices"),
           "ns/vertex");
    report("alloc.termination_ns_per_edge",
           spans.median_ns_per("alloc.termination", "edges"), "ns/edge");
    report("alloc.materialize_ns_per_edge",
           spans.median_ns_per("alloc.materialize", "edges"), "ns/edge");
    report("alloc.solve_ms", spans.median_ms("alloc.solve", comp), "ms");
    report("alloc.dense_rounds",
           spans.last_arg("alloc.solve", "dense_rounds", comp), "count");
    report("alloc.sparse_rounds",
           spans.last_arg("alloc.solve", "sparse_rounds", comp), "count");
    report("alloc.recomputed_total",
           spans.last_arg("alloc.solve", "recomputed", comp), "count");
    report("alloc.round_ms", spans.median_ms("alloc.round", comp), "ms");
    report("alloc.round_best_size",
           spans.last_arg("alloc.round", "best_size", comp), "count");
    report("alloc.boost_ms", spans.median_ms("alloc.boost", comp), "ms");
    report("alloc.boost_iterations",
           spans.last_arg("alloc.boost", "iterations", comp), "count");
    report("alloc.boost_augmentations",
           spans.last_arg("alloc.boost", "augmentations", comp), "count");
    report("flow.oracle_ns_per_edge",
           spans.median_ns_per("flow.oracle", "edges"), "ns/edge");
    report("mpc.naive_ms", spans.median_ms("mpc.naive"), "ms");
    report("mpc.phased_ms", spans.median_ms("mpc.phased"), "ms");
    report("mpc.sampled_ms", spans.median_ms("mpc.sampled"), "ms");
    report("mpc.collect_balls_ms", spans.median_ms("mpc.collect_balls"),
           "ms");
    report("mpc.shuffle_ns_per_word",
           spans.median_ns_per("mpc.shuffle", "words"), "ns/word");
    report("mpc.phases", spans.last_arg("mpc.phased", "phases"), "count");
    report("mpc.max_ball_volume",
           spans.last_arg("mpc.phased", "max_ball_volume"), "count");
    report("mpc.host_record_updates",
           spans.last_arg("mpc.naive", "host_record_updates"), "count");
    report("serve.apply_mutations_ms",
           spans.median_ms("serve.apply_mutations"), "ms");
    report("serve.warm_solve_ms", spans.median_ms("serve.warm_solve"), "ms");
    report("serve.recompute_ratio",
           counters.warm_dense_equiv_volume == 0
               ? 0.0
               : static_cast<double>(counters.warm_recompute_volume) /
                     static_cast<double>(counters.warm_dense_equiv_volume),
           "ratio");
    // Generation 0 is the set-up's cold solve, not a fallback.
    report("serve.cold_fallbacks",
           static_cast<double>(counters.cold_solves - 1), "count");
    report("serve.query_ns_per_vertex",
           spans.median_ns_per("serve.query", "vertices"), "ns/vertex");
    report("trace.solve_overhead_ms",
           (median(certified.traced_seconds) - median(certified.seconds)) * 1e3,
           "ms");
    report("trace.gen_overhead_ms",
           median(serving.traced_gen_ms) - median(serving.gen_ms), "ms");
    // 0 on every passing run, so it is reported here, without a bound,
    // rather than as an end-to-end metric.
    report("fail_rate",
           static_cast<double>(outcome.failed) /
               static_cast<double>(outcome.attempted),
           "ratio");

    if (!args.trace_file.empty()) {
      std::ofstream out(args.trace_file);
      TraceRecorder::instance().write_trace_events(out);
      std::cout << "trace: " << args.trace_file << "\n";
    }
  }

  // The digest every repetition of this seed reproduced.
  if (!certified.reps.empty()) {
    std::cout << "digest: " << std::hex << certified.reps.front().digest
              << std::dec << "\n";
  }
  for (const std::string& e : outcome.errors) std::cout << "error: " << e << "\n";

  const bool correct = outcome.failed == 0 && !certified.reps.empty() &&
                       !mpc_source.reps.empty() && !serving.gen_ms.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& row : metrics) {
    json << (first ? "" : ", ") << "\"" << row.name << "\": {\"value\": "
         << format_number(row.value) << ", \"unit\": \"" << row.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::EnvironmentError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
