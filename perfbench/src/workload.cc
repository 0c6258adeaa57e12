#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "baselines/policy_factory.h"
#include "common/check.h"
#include "common/rng.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "pipeline/apps.h"
#include "runtime/backend_fleet.h"
#include "runtime/pipeline_runtime.h"
#include "serve/load_generator.h"
#include "serve/serve_runtime.h"
#include "timed_policy.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Rate curves are fixed (pardsim's default seed) and the workload seed only
// redraws the Poisson arrivals on them. Redrawing the curve too moves goodput
// across seeds by more than any change worth detecting: with the MMPP burst
// schedule redrawn per seed, 150 s of serve-da-mmpp-tenants varied by 18% in
// request count and 8% in goodput (quartile spread over median, 12 seeds).
constexpr std::uint64_t kCurveSeed = 7;

// Traced repetitions sample 1% of requests into the trace rings; batch,
// epoch and fleet events are always recorded until a ring fills.
constexpr double kTraceSampleRate = 0.01;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Records spans relative to the repetition's start.
class SpanLog {
 public:
  explicit SpanLog(std::vector<Span>* out) : out_(out), origin_(Clock::now()) {}

  template <typename Fn>
  auto Time(const char* name, Fn&& fn) {
    const auto start = Clock::now();
    struct Close {
      SpanLog* log;
      const char* name;
      Clock::time_point start;
      ~Close() { log->Add(name, start); }
    } close{this, name, start};
    return fn();
  }

  void Add(const char* name, Clock::time_point start) {
    const auto us = [](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    out_->push_back(Span{name, us(start - origin_), us(Clock::now() - start)});
  }

  Clock::time_point origin() const { return origin_; }

 private:
  std::vector<Span>* out_;
  Clock::time_point origin_;
};

// The two-state Markov-modulated rate of SynthesizeMmppArrivals (exponential
// dwells alternating base and burst rate) as a step-shaped rate curve, drawn
// once from kCurveSeed.
pard::RateFunction MmppRateCurve(const pard::MmppOptions& mmpp, pard::SimTime end) {
  pard::Rng rng = pard::Rng(kCurveSeed).Fork("mmpp-schedule");
  std::vector<pard::RateFunction::Point> points;
  bool burst = false;
  for (pard::SimTime t = 0; t < end; burst = !burst) {
    const double mean_us = (burst ? mmpp.mean_burst_s : mmpp.mean_base_s) * 1e6;
    const pard::SimTime next =
        std::min(end, t + std::max<pard::SimTime>(2, std::llround(rng.Exponential(mean_us))));
    const double rate = burst ? mmpp.burst_rate : mmpp.base_rate;
    points.push_back({t, rate});
    points.push_back({next - 1, rate});
    t = next;
  }
  return pard::RateFunction(std::move(points));
}

std::vector<std::vector<double>> ExecScales(const pard::BackendFleet& fleet, int modules) {
  std::vector<std::vector<double>> scales(static_cast<std::size_t>(modules));
  for (int m = 0; m < modules; ++m) {
    auto& out = scales[static_cast<std::size_t>(m)];
    for (pard::BackendState state :
         {pard::BackendState::kColdStarting, pard::BackendState::kActive,
          pard::BackendState::kDraining, pard::BackendState::kRetired,
          pard::BackendState::kFailed}) {
      for (int worker : fleet.WorkersInState(m, state)) {
        const double scale = fleet.Slot(m, worker).exec_scale;
        if (std::find(out.begin(), out.end(), scale) == out.end()) {
          out.push_back(scale);
        }
      }
    }
  }
  return scales;
}

// Reads the traced run's instruments: the policy decorator's call stats and
// the program's own control-sync histogram and refresh counters.
void ReadInstruments(const TimedPolicy& policy, pard::MetricsRegistry& registry, Rep& rep) {
  const PolicyCallStats& s = policy.stats();
  const double decide_calls = static_cast<double>(s.decide_calls.load());
  auto& out = rep.instruments;
  out["core.policy.decide_calls"] = decide_calls;
  out["core.policy.decide_ns_mean"] =
      decide_calls > 0 ? static_cast<double>(s.decide_ns.load()) / decide_calls : 0.0;
  const double admit_calls = static_cast<double>(s.admit_calls.load());
  out["core.policy.admit_calls"] = admit_calls;
  out["core.policy.admit_ns_mean"] =
      admit_calls > 0 ? static_cast<double>(s.admit_ns.load()) / admit_calls : 0.0;
  const double pop_calls = static_cast<double>(s.pop_calls.load());
  out["core.policy.pop_calls"] = pop_calls;
  out["core.policy.pop_ns_mean"] =
      pop_calls > 0 ? static_cast<double>(s.pop_ns.load()) / pop_calls : 0.0;
  std::vector<double> sync_us;
  {
    std::lock_guard<std::mutex> lock(s.sync_mu);
    sync_us = s.sync_us;
  }
  out["core.policy.sync_calls"] = static_cast<double>(sync_us.size());
  std::sort(sync_us.begin(), sync_us.end());
  out["core.policy.sync_us_p50"] = Quantile(sync_us, 0.5);
  out["core.policy.sync_us_p99"] = Quantile(sync_us, 0.99);

  // Same layout the serve runtime registers, so this returns its histogram
  // (an empty one in the simulator, which does not time syncs).
  const pard::AtomicHistogram* hist =
      registry.GetHistogram("control.sync_duration_us", 0.0, 20000.0, 40);
  const auto hist_quantile = [hist](double q) {
    const std::int64_t total = hist->Count();
    if (total == 0) {
      return 0.0;
    }
    // Linear within the bucket holding the rank: bucket resolution only.
    const double rank = q * static_cast<double>(total);
    double seen = static_cast<double>(hist->UnderflowCount());
    if (rank <= seen) {
      return hist->lo();
    }
    const double width = (hist->hi() - hist->lo()) / static_cast<double>(hist->bucket_count());
    for (std::size_t i = 0; i < hist->bucket_count(); ++i) {
      const double n = static_cast<double>(hist->BucketCount(i));
      if (n > 0 && rank <= seen + n) {
        return hist->lo() + width * (static_cast<double>(i) + (rank - seen) / n);
      }
      seen += n;
    }
    return hist->hi();
  };
  out["serve.control.sync_us_p50"] = hist_quantile(0.5);
  out["serve.control.sync_us_p99"] = hist_quantile(0.99);
  out["serve.control.refreshed"] =
      static_cast<double>(registry.GetCounter("control.refresh_modules_refreshed")->Value());
  out["serve.control.skipped"] =
      static_cast<double>(registry.GetCounter("control.refresh_modules_skipped")->Value());
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = [] {
    std::vector<WorkloadDef> all;
    WorkloadDef sim;
    sim.name = "sim-lv-tweet";
    sim.app = "lv";
    sim.duration_s = 1000.0;
    sim.base_rate = 200.0;
    all.push_back(sim);

    WorkloadDef da;
    da.name = "serve-da-mmpp-tenants";
    da.app = "da";
    da.serve = true;
    da.mmpp = true;
    da.duration_s = 150.0;
    da.base_rate = 150.0;
    da.burst_rate = 600.0;
    da.speedup = 50.0;
    da.broker_threads = 2;
    da.tenants = true;
    all.push_back(da);
    return all;
  }();
  return workloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

int NonWorkerThreads(const WorkloadDef& w) {
  if (!w.serve) {
    return 0;
  }
  return 2 + (w.broker_threads > 1 ? w.broker_threads : 0);
}

Rep RunRep(const WorkloadDef& w, std::uint64_t seed, bool traced, const std::string& trace_path,
           bool setup_only) {
  Rep rep;
  SpanLog spans(&rep.spans);
  const auto rep_start = spans.origin();

  rep.spec = spans.Time("pipeline.MakeApp", [&] { return pard::MakeApp(w.app); });

  const pard::SimTime end = pard::SecToUs(w.duration_s);
  const auto gen_start = Clock::now();
  const pard::RateFunction curve = spans.Time("trace.MakeTrace", [&] {
    if (w.mmpp) {
      pard::MmppOptions mmpp;
      mmpp.base_rate = w.base_rate;
      mmpp.burst_rate = w.burst_rate;
      return MmppRateCurve(mmpp, end);
    }
    pard::TraceOptions trace_options;
    trace_options.duration_s = w.duration_s;
    trace_options.base_rate = w.base_rate;
    trace_options.seed = kCurveSeed;
    return pard::MakeTrace("tweet", trace_options);
  });
  const double expected_rate = curve.MeanRate(0, end);
  rep.scheduled = spans.Time("trace.GenerateArrivals", [&] {
    pard::Rng rng = pard::Rng(seed).Fork(w.mmpp ? "arrivals:mmpp" : "arrivals:tweet");
    return pard::GenerateArrivals(curve, 0, end, rng);
  });
  rep.trace_gen_ms = SecondsSince(gen_start) * 1e3;
  PARD_CHECK_MSG(!rep.scheduled.empty(), "workload produced no arrivals");

  // Owned here, borrowed by the runtime: declared before it so they outlive it.
  std::unique_ptr<pard::DropPolicy> policy = spans.Time("core.MakePolicy", [&] {
    pard::PolicyParams params;
    params.seed = seed;
    return pard::MakePolicy("pard", params);
  });
  TimedPolicy* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<TimedPolicy>(std::move(policy));
    timed = wrapper.get();
    policy = std::move(wrapper);
  }
  std::unique_ptr<pard::MetricsRegistry> registry;
  std::unique_ptr<pard::TraceRecorder> recorder;

  pard::RuntimeOptions options;
  options.seed = seed;
  options.enable_scaling = true;
  options.provision_headroom = 1.15;
  if (w.tenants) {
    options.tenants = pard::MakeReferenceTenantCatalog();
  }
  rep.tenants = options.tenants;
  if (traced) {
    registry = std::make_unique<pard::MetricsRegistry>();
    options.metrics = registry.get();
    options.metrics_interval = 0;  // Totals only: no sampler thread.
    pard::TraceRecorder::Options trace_options;
    trace_options.sample_rate = kTraceSampleRate;
    trace_options.seed = seed;
    trace_options.ring_capacity = std::size_t{1} << 16;
    recorder = std::make_unique<pard::TraceRecorder>(trace_options);
    options.trace = recorder.get();
  }

  std::unique_ptr<pard::PipelineRuntime> sim;
  std::unique_ptr<pard::ServeRuntime> server;
  spans.Time("runtime.construct", [&] {
    if (w.serve) {
      pard::ServeOptions serve;
      serve.speedup = w.speedup;
      serve.broker_threads = w.broker_threads;
      serve.max_total_threads = 64;
      // Refresh inline on the control thread: a refresh pool would add
      // threads beyond NonWorkerThreads() and tie the run to the host's
      // core count.
      serve.parallel_refresh = false;
      serve.refresh_threads = 1;
      server = std::make_unique<pard::ServeRuntime>(rep.spec, options, policy.get(),
                                                    expected_rate, serve);
    } else {
      sim = std::make_unique<pard::PipelineRuntime>(rep.spec, options, policy.get(),
                                                    expected_rate);
    }
  });
  rep.setup_s = SecondsSince(rep_start);
  if (setup_only) {
    return rep;
  }

  const double cpu_before = CpuSeconds();
  const auto run_start = Clock::now();
  spans.Time("runtime.RunTrace", [&] {
    if (server != nullptr) {
      server->RunTrace(rep.scheduled);
    } else {
      sim->RunTrace(rep.scheduled);
    }
  });
  rep.run_s = SecondsSince(run_start);
  rep.cpu_s = CpuSeconds() - cpu_before;

  if (server != nullptr) {
    rep.requests = server->requests();
    rep.exec_scales = ExecScales(server->fleet(), rep.spec.NumModules());
  } else {
    rep.requests = sim->requests();
    rep.exec_scales = ExecScales(sim->fleet(), rep.spec.NumModules());
    rep.sim_events = sim->sim().ExecutedEvents();
  }

  const auto analysis_start = Clock::now();
  spans.Time("metrics.RunAnalysis", [&] {
    const pard::RunAnalysis analysis(rep.requests, rep.spec);
    rep.summary.good = analysis.GoodCount();
    rep.summary.dropped = analysis.DroppedCount();
    rep.summary.drop_reasons = analysis.DropReasonCounts();
    rep.summary.invalid_rate = analysis.InvalidRate();
    rep.summary.module_drop_share = analysis.PerModuleDropShare();
    rep.summary.tenants = analysis.PerTenant();
  });
  rep.analysis_ms = SecondsSince(analysis_start) * 1e3;
  spans.Add("workload.rep", rep_start);

  if (traced) {
    ReadInstruments(*timed, *registry, rep);
    if (!trace_path.empty()) {
      recorder->WriteChromeTrace(trace_path);
    }
  }
  return rep;
}

}  // namespace perfbench
