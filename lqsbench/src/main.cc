// Monitored-path benchmark: one workload per invocation.
//
//   lqsbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--inject never_complete|perturb_digest]
//            [--spans PATH]
//
// --trace 0 prints the end-to-end metrics: six set-ups, then the measured
// timeline a fixed number of times (S times the workload's timelines per
// second, at least five), and every run must serve the same report digest.
// --trace 1 prints the per-layer metrics: as many untraced runs of that same
// configuration, then one traced run whose digest must match theirs, with
// every report replayed through the layers, and the wire-codec replay. Every
// shard ticks on one thread.
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the process exits non-zero when the correctness
// gate fires.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace lqsbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  Inject inject = Inject::kNone;
  std::string spans;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "lqsbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1" ? 1 : 0;
      have_trace = value == "0" || value == "1";
    } else if (flag == "--inject") {
      if (value == "never_complete") {
        args->inject = Inject::kNeverComplete;
      } else if (value == "perturb_digest") {
        args->inject = Inject::kPerturbDigest;
      } else {
        std::fprintf(stderr, "lqsbench: unknown --inject %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      std::fprintf(stderr, "lqsbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: lqsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--inject never_complete|"
                 "perturb_digest] [--spans PATH]\n");
    return false;
  }
  return true;
}

/// Correctness gate over every timeline of one invocation: all must have
/// finished every session, passed FinalCheck, served only finite progress
/// in [0, 1], and produced the same session-ordered digest.
class Gate {
 public:
  void Check(const char* label, const TimelineResult& r) {
    if (r.unfinished > 0) {
      Fail(label, std::to_string(r.unfinished) + " session(s) never finished");
    }
    if (!r.violations.empty()) {
      Fail(label, std::to_string(r.violations.size()) +
                      " FinalCheck violation(s), first: " + r.violations[0]);
    }
    if (r.bad_progress > 0) {
      Fail(label, std::to_string(r.bad_progress) +
                      " progress value(s) non-finite or outside [0,1]");
    }
    if (!have_digest_) {
      digest_ = r.digest;
      digest_label_ = label;
      have_digest_ = true;
    } else if (r.digest != digest_) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "report digest %016" PRIx64
                    " differs from %s's %016" PRIx64,
                    r.digest, digest_label_.c_str(), digest_);
      Fail(label, buf);
    }
    attempted_ += r.reports + r.unfinished;
    failed_ += r.Failed();
  }
  void Fail(const std::string& label, const std::string& why) {
    std::fprintf(stderr, "lqsbench: GATE FAILED (%s): %s\n", label.c_str(),
                 why.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool ok_ = true;
  bool have_digest_ = false;
  uint64_t digest_ = 0;
  std::string digest_label_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResult(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += gate.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                    1, gate.attempted()));
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintHeader(const WorkloadSpec& spec, const Args& args, size_t plans) {
  std::printf(
      "lqsbench workload=%s seed=%" PRIu64
      " trace=%d%s sessions=%d plans=%zu shards=%d threads/shard=1 %s "
      "preset=%s nproc=%d\n",
      spec.name.c_str(), args.seed, args.trace, args.smoke ? " (smoke)" : "",
      spec.sessions, plans, kShards, spec.remote ? "remote/delta" : "local",
      spec.preset.c_str(), Nproc());
  if (spec.faults) {
    std::printf(
        "  faults: drop %.2f, delay %.2f up to %.0f ms, duplicate %.2f, "
        "corrupt %.2f; max_attempts %d\n",
        spec.fault_config.drop_probability,
        spec.fault_config.delay_probability, spec.fault_config.max_delay_ms,
        spec.fault_config.duplicate_probability,
        spec.fault_config.corrupt_probability,
        spec.client_options.max_attempts);
  }
}

/// Smoke-only check that the closed loop issues the same tick schedule as
/// ShardedMonitor::RunToCompletion: both must serve the same digest.
void CheckRunToCompletion(const WorkloadSpec& spec, const Traces& traces,
                          const std::vector<SessionPlan>& plan, Inject inject,
                          uint64_t expected, Gate* gate) {
  Fleet fleet = RegisterFleet(spec, traces, plan, nullptr, inject);
  const uint64_t digest =
      RunToCompletionDigest(fleet.monitor.get(), plan.size());
  std::printf("  run_to_completion_digest %016" PRIx64 "\n", digest);
  if (inject == Inject::kNone && digest != expected) {
    gate->Fail("run_to_completion", "digest differs from the closed loop's");
  }
}

/// Number of measured timelines: set by --seconds and the workload alone,
/// at least five, so every commit's per-tick minima are over as many runs.
size_t MeasuredRuns(const WorkloadSpec& spec, double seconds) {
  constexpr double kMinRuns = 5;
  return static_cast<size_t>(
      std::max(kMinRuns, std::round(seconds * spec.timelines_per_s)));
}

int EndToEnd(const WorkloadSpec& spec, const Args& args) {
  // The full set-up (traces and registration) is made kSetups times, spread
  // evenly over the measured timelines; every other timeline only registers
  // a fresh monitor on the last traces. The first set-up is cold (the
  // process's first-touch page faults) and printed apart; setup_s is the
  // minimum of the others. The host's speed swings for seconds at a time,
  // so set-ups made back to back would all see the same phase of it.
  constexpr size_t kSetups = 12;
  const size_t num_runs = MeasuredRuns(spec, args.seconds);
  std::unique_ptr<Traces> traces;
  std::vector<SessionPlan> plan;
  std::vector<double> setup_s;
  std::vector<TimelineResult> runs;
  for (size_t i = 0; i < num_runs; ++i) {
    Fleet fleet;
    while (setup_s.size() < kSetups &&
           setup_s.size() * num_runs <= i * kSetups) {
      fleet = Fleet();  // the monitor goes before the traces it replays
      traces.reset();
      traces = BuildTraces();
      if (traces == nullptr) return 2;
      plan = PlanSessions(spec, *traces, args.seed);
      fleet = RegisterFleet(spec, *traces, plan, nullptr, args.inject);
      setup_s.push_back(traces->build_s + traces->annotate_s +
                        traces->execute_s + fleet.register_s);
    }
    if (fleet.monitor == nullptr) {
      fleet = RegisterFleet(spec, *traces, plan, nullptr, args.inject);
    }
    const bool perturb = args.inject == Inject::kPerturbDigest && i == 0;
    runs.push_back(
        RunTimeline(fleet.monitor.get(), *traces, plan, perturb, {}));
  }
  const double cold_setup_s = setup_s.front();
  setup_s.erase(setup_s.begin());
  const double peak_rss_mb = PeakRssMb();
  PrintHeader(spec, args, traces->executed.size());

  Gate gate;
  for (size_t i = 0; i < runs.size(); ++i) {
    gate.Check(("measured run " + std::to_string(i + 1)).c_str(), runs[i]);
  }
  if (args.smoke) {
    CheckRunToCompletion(spec, *traces, plan, args.inject, runs[0].digest,
                         &gate);
  }

  // Every run replays the same timeline (the digests match), so tick i does
  // the same work in each run. The tick latency series is the per-tick
  // minimum over runs: the tick's cost with the least interference from
  // outside the system. On a shared host whose speed swings by half for
  // tens of seconds, per-tick medians spread 25-31% between runs of
  // local_lp_2k; per-tick minima spread 5-8% (lqsbench/README.md). Its p99
  // shows only stalls that repeat in every run; each run's own p99 of its
  // raw series, the tail a dashboard sees, is printed beside it.
  const TimelineResult& first = runs[0];
  std::vector<double> rates, raw_p99, ticks(first.tick_ms.size());
  uint64_t reports = 0, failed = 0;
  bool aligned = true;
  for (const TimelineResult& r : runs) {
    rates.push_back(r.ReportsPerSecond());
    raw_p99.push_back(Quantile(r.tick_ms, 0.99));
    reports += r.reports;
    failed += r.Failed();
    aligned = aligned && r.tick_ms.size() == ticks.size();
  }
  double tick_sum_ms = 0;
  for (size_t i = 0; aligned && i < ticks.size(); ++i) {
    ticks[i] = first.tick_ms[i];
    for (const TimelineResult& r : runs) {
      ticks[i] = std::min(ticks[i], r.tick_ms[i]);
    }
    tick_sum_ms += ticks[i];
  }
  if (!aligned) gate.Fail("measured runs", "tick counts differ between runs");
  const uint64_t bytes = first.stats.transport_bytes;
  const double sessions = static_cast<double>(plan.size());
  std::printf(
      "  runs=%zu ticks/run=%" PRIu64 " reports/run=%" PRIu64
      " due_ratio=%.4f digest=%016" PRIx64 "\n",
      runs.size(), first.ticks, first.reports,
      static_cast<double>(first.reports) /
          (static_cast<double>(first.ticks) * sessions),
      first.digest);
  std::string per_run, setups;
  for (double rate : rates) {
    per_run += " " + std::to_string(static_cast<long long>(rate));
  }
  for (double s : setup_s) setups += " " + std::to_string(s).substr(0, 5);
  std::printf("  per run reports/s:%s\n  setups s: cold %.3f, then%s\n",
              per_run.c_str(), cold_setup_s, setups.c_str());
  std::printf("  tick samples=%zu per-tick minima of %zu runs (p99 has %zu "
              "beyond it)\n",
              ticks.size(), runs.size(), ticks.size() / 100);
  std::printf("  raw tick_p99_ms of each run: median %.4f, min %.4f, "
              "max %.4f\n",
              Median(raw_p99), *std::min_element(raw_p99.begin(), raw_p99.end()),
              *std::max_element(raw_p99.begin(), raw_p99.end()));
  std::printf("  failed_share %.6f (%" PRIu64 " of %" PRIu64
              " operations)\n",
              reports > 0 ? static_cast<double>(failed) /
                                static_cast<double>(reports)
                          : 0.0,
              failed, reports);
  std::printf("  wire_bytes_per_report %.3f B\n",
              first.reports > 0 ? static_cast<double>(bytes) /
                                      static_cast<double>(first.reports)
                                : 0.0);

  std::vector<Metric> metrics = {
      {"reports_per_s",
       tick_sum_ms > 0 ? static_cast<double>(first.reports) /
                             (tick_sum_ms / 1000.0)
                       : 0.0,
       "1/s"},
      {"tick_p50_ms", Quantile(ticks, 0.50), "ms"},
      {"tick_p99_ms", Quantile(ticks, 0.99), "ms"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"error_time", first.error_time, "fraction"},
      {"staleness_p99_ms", first.staleness_p99_ms, "ms"},
  };
  PrintMetrics(metrics);
  PrintResult(gate, metrics);
  return gate.ok() ? 0 : 1;
}

int PerLayer(const WorkloadSpec& spec, const Args& args) {
  std::unique_ptr<Traces> traces = BuildTraces();
  if (traces == nullptr) return 2;
  const std::vector<SessionPlan> plan =
      PlanSessions(spec, *traces, args.seed);
  PrintHeader(spec, args, traces->executed.size());

  Gate gate;
  std::vector<double> register_s, untraced_ticks;
  const size_t num_runs = MeasuredRuns(spec, args.seconds);
  size_t untraced_runs = 0;
  do {
    Fleet fleet = RegisterFleet(spec, *traces, plan, nullptr, args.inject);
    register_s.push_back(fleet.register_s);
    const bool perturb =
        args.inject == Inject::kPerturbDigest && untraced_runs == 0;
    const TimelineResult r =
        RunTimeline(fleet.monitor.get(), *traces, plan, perturb, {});
    gate.Check(("untraced run " + std::to_string(++untraced_runs)).c_str(),
               r);
    untraced_ticks.insert(untraced_ticks.end(), r.tick_ms.begin(),
                          r.tick_ms.end());
  } while (untraced_runs < num_runs);

  const TracedRun t = RunTraced(spec, *traces, plan, args.inject, args.spans);
  gate.Check("traced run", t.timeline);
  if (t.replay_mismatches > 0) {
    gate.Fail("traced run", std::to_string(t.replay_mismatches) +
                                " replayed report(s) differ from the served "
                                "ones");
  }
  register_s.push_back(t.register_s);
  const CodecCosts codec = ReplayCodec(*traces, plan);
  if (codec.errors > 0) {
    gate.Fail("codec replay",
              std::to_string(codec.errors) + " wire operation(s) failed");
  }
  if (args.smoke) {
    CheckRunToCompletion(spec, *traces, plan, args.inject,
                         t.timeline.digest, &gate);
  }

  const TimelineResult& tl = t.timeline;
  const lqs::MonitorStats& st = tl.stats;
  const double ticks = static_cast<double>(std::max<uint64_t>(1, tl.ticks));
  const double reports = static_cast<double>(std::max<uint64_t>(1, tl.reports));
  const double estimates =
      static_cast<double>(std::max<uint64_t>(1, t.estimates));
  auto per = [](double total, uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double shard_wall_ns = t.shard_wall_ms * 1e6;
  // Cost the monitor's shard ticks pay per report outside the monitor's own
  // code: the link (remote sessions only) and the checked estimate.
  const bool remote = spec.remote;
  const double explained_ns =
      (remote ? t.endpoint_ns + t.client_ns : 0.0) + t.checked_ns;
  const double traced_p50 = Quantile(tl.tick_ms, 0.5);
  const double untraced_p50 = Quantile(untraced_ticks, 0.5);

  std::printf(
      "  traced run: ticks=%" PRIu64 " reports=%" PRIu64 " spans=%zu%s%s\n",
      tl.ticks, tl.reports, t.spans, args.spans.empty() ? "" : " -> ",
      args.spans.c_str());
  std::printf(
      "  reconciliation: shard tick wall %.3f ms; replayed layers %.3f ms "
      "(endpoint %.3f, client %.3f, checked estimate %.3f) = %.1f%%; "
      "remainder %.1f ns/report is monitor self time; within 10%%: %s\n",
      t.shard_wall_ms, explained_ns / 1e6,
      remote ? t.endpoint_ns / 1e6 : 0.0, remote ? t.client_ns / 1e6 : 0.0,
      t.checked_ns / 1e6,
      shard_wall_ns > 0 ? 100.0 * explained_ns / shard_wall_ns : 0.0,
      (shard_wall_ns - explained_ns) / reports,
      std::abs(shard_wall_ns - explained_ns) <= 0.1 * shard_wall_ns ? "yes"
                                                                     : "no");
  std::printf("  tracing overhead: traced tick_p50 %.4f ms - untraced "
              "tick_p50 %.4f ms (%zu untraced runs)\n",
              traced_p50, untraced_p50, untraced_runs);

  const std::vector<Metric> metrics = {
      {"workload.build_s", traces->build_s, "s"},
      {"optimizer.annotate_s", traces->annotate_s, "s"},
      {"exec.execute_s", traces->execute_s, "s"},
      {"monitor.register_s", Median(register_s), "s"},
      {"monitor.estimator_cache_hit_ratio",
       st.sessions > 0 ? 1.0 - static_cast<double>(st.estimators_cached) /
                                   static_cast<double>(st.sessions)
                       : 0.0,
       "ratio"},
      {"monitor.stats_us", per(t.stats_ms * 1000.0, t.stats_calls), "us"},
      {"monitor.tick_ms", tl.tick_wall_ms / ticks, "ms"},
      {"monitor.shard_tick_ms", t.shard_wall_ms / ticks, "ms"},
      {"monitor.fleet_overhead_ms",
       (tl.tick_wall_ms - t.shard_wall_ms) / ticks, "ms"},
      {"monitor.run_overhead_ms",
       (tl.loop_wall_ms - tl.tick_wall_ms - tl.excluded_ms) / ticks, "ms"},
      {"monitor.self_ns_per_report", (shard_wall_ns - explained_ns) / reports,
       "ns"},
      {"monitor.reconciled_share",
       shard_wall_ns > 0 ? explained_ns / shard_wall_ns : 0.0, "ratio"},
      {"monitor.reports_per_tick", reports / ticks, "count"},
      {"remote.endpoint_ns_per_poll", per(t.endpoint_ns, t.endpoint_calls),
       "ns"},
      {"remote.client_ns_per_poll", per(t.client_ns, t.client_polls), "ns"},
      {"remote.encode_full_ns", codec.encode_full_ns, "ns"},
      {"remote.encode_delta_ns", codec.encode_delta_ns, "ns"},
      {"remote.delta_make_ns", codec.delta_make_ns, "ns"},
      {"remote.delta_apply_ns", codec.delta_apply_ns, "ns"},
      {"remote.decode_full_ns", codec.decode_full_ns, "ns"},
      {"remote.decode_delta_ns", codec.decode_delta_ns, "ns"},
      {"remote.crc_ns_per_kb", codec.crc_ns_per_kb, "ns/KB"},
      {"remote.polls", static_cast<double>(st.transport_polls), "count"},
      {"remote.retries", static_cast<double>(st.transport_retries), "count"},
      {"remote.failures", static_cast<double>(st.transport_failures), "count"},
      {"remote.decode_errors", static_cast<double>(st.decode_errors), "count"},
      {"remote.resyncs", static_cast<double>(st.delta_resyncs), "count"},
      {"remote.duplicates_ignored", static_cast<double>(st.duplicates_ignored),
       "count"},
      {"remote.regressions_rejected",
       static_cast<double>(st.regressions_rejected), "count"},
      {"remote.useful_poll_ratio",
       st.transport_polls > 0 ? static_cast<double>(st.snapshots_accepted) /
                                    static_cast<double>(st.transport_polls)
                              : 0.0,
       "ratio"},
      {"remote.bytes", static_cast<double>(st.transport_bytes), "B"},
      {"remote.bytes_per_report",
       static_cast<double>(st.transport_bytes) / reports, "B"},
      {"lqs.estimate_ns", t.estimate_ns / estimates, "ns"},
      {"lqs.bounds_ns", t.bounds_ns / estimates, "ns"},
      {"lqs.estimate_share",
       shard_wall_ns > 0 ? t.estimate_ns / shard_wall_ns : 0.0, "ratio"},
      {"analysis.check_ns", (t.checked_ns - t.estimate_ns) / estimates, "ns"},
      {"analysis.violations", static_cast<double>(tl.violations.size()),
       "count"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  PrintMetrics(metrics);
  PrintResult(gate, metrics);
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace lqsbench

int main(int argc, char** argv) {
  using namespace lqsbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, args.smoke, &spec)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "lqsbench: unknown workload %s (known:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  return args.trace == 1 ? PerLayer(spec, args) : EndToEnd(spec, args);
}
