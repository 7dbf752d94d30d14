// simbench: the simulator benchmark. One workload per process, so the peak
// resident set is per workload.
//
//   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--pinned FILE]
//
// --trace 0 runs trials (set up, timed run, collect) for about S seconds and
// reports the end-to-end metrics; --trace 1 runs the layer probes, then
// alternates traced and untraced trials and reports the per-layer metrics.
// Every trial's simulated outputs must digest identically (wall time never
// feeds back into the simulation). With --pinned, the workload's digest at
// the pinned seed must also match the pinned one: at any other --seed, one
// extra untimed reference trial runs at the pinned seed to check it. The
// last stdout line is the result JSON.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machine.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace simbench;

struct Args {
  WorkloadId workload = WorkloadId::kPaper2vm;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned;
};

/// sweep_parallel's worker threads: every CPU, at least 2 and at most 4.
std::size_t sweep_jobs() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 4);
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "simbench: " << msg
            << "\nusage: simbench --workload "
               "paper_2vm|fattree_scaleout|lanes_allreduce|"
               "lanes_allreduce_leaf|sweep_parallel "
               "[--seed N] [--seconds S] [--trace 0|1] [--pinned FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace wants 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--pinned") {
        a.pinned = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

struct Pinned {
  std::uint64_t seed = 0;
  std::string digest;
};

/// The pinned digest of workload `w`, if the file lists one. Lines:
/// "<workload> <seed> <digest>"; '#' starts a comment.
std::optional<Pinned> pinned_digest(const std::string& path, WorkloadId w) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned digests " + path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string name;
    Pinned p;
    if (ss >> name >> p.seed >> p.digest && name == to_string(w)) return p;
  }
  return std::nullopt;
}

struct Trial {
  bool traced = false;
  bool ok = false;
  std::string error;  // exception text, if the trial threw
  TrialResult r;
  double wall_s = 0.0;
  std::map<std::string, double> self_s;  // span self time by name (traced)
};

double median_of(const std::vector<Trial>& trials, bool traced,
                 double (*fn)(const TrialResult&)) {
  std::vector<double> v;
  for (const Trial& t : trials) {
    if (t.ok && t.traced == traced) v.push_back(fn(t.r));
  }
  return median(v);
}

double rate(const TrialResult& r) { return r.run_s > 0 ? r.sim_s / r.run_s : 0; }

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

/// Pin the calling thread to `cpu`; best effort (a failure leaves it free).
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const char* wname = to_string(args.workload);
  const MachineRecord m = machine_record(args.seed);
  std::cout << "{\"machine\": {\"nproc\": " << m.nproc
            << ", \"cpu_model\": " << json_string(m.cpu_model)
            << ", \"compiler\": " << json_string(m.compiler)
            << ", \"build_type\": " << json_string(m.build_type)
            << ", \"loadavg_1m\": " << json_number(m.loadavg_1m)
            << ", \"seed\": " << m.seed
            << ", \"workload\": " << json_string(wname)
            << ", \"jobs\": "
            << (args.workload == WorkloadId::kSweepParallel ? sweep_jobs() : 1)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";

  std::optional<Pinned> pinned;
  if (!args.pinned.empty()) {
    try {
      pinned = pinned_digest(args.pinned, args.workload);
    } catch (const std::exception& e) {
      std::cerr << "simbench: " << e.what() << "\n";
      return 1;
    }
  }

  SpanRecorder spans(args.trace);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::map<std::string, double> probes;
  if (args.trace) probes = run_probes(spans);

  // Trials until the time is spent: at least kMinTrials (per side when
  // traced), never starting one that would overrun by more than half, and
  // leaving the time of one more for the reference trial.
  constexpr int kMinTrials = 3;
  constexpr int kMaxTrials = 200;
  const int min_trials = args.trace ? 2 * kMinTrials : kMinTrials;
  // One-thread trials rotate over the CPUs: contention from other tenants of
  // a shared host differs from core to core, and a median over trials on
  // every core is steadier than one taken on whichever core the thread
  // stayed on. Sweep trials keep every CPU (the pool's threads inherit the
  // caller's affinity).
  const std::vector<int> cpus =
      args.workload == WorkloadId::kSweepParallel ? std::vector<int>{}
                                                  : allowed_cpus();
  std::vector<Trial> trials;
  std::vector<double> trial_walls;
  double first_trial_rss_mb = 0.0;
  const bool reference_due = pinned && pinned->seed != args.seed;
  for (int i = 0; i < kMaxTrials; ++i) {
    if (i >= min_trials &&
        elapsed() + (reference_due ? 2 : 1) * median(trial_walls) >
            args.seconds) {
      break;
    }
    if (!cpus.empty()) {
      // A traced trial and its untraced partner share a CPU.
      const auto slot = static_cast<std::size_t>(args.trace ? i / 2 : i);
      pin_to(cpus[slot % cpus.size()]);
    }
    Trial t;
    t.traced = args.trace && i % 2 == 0;
    TrialContext ctx;
    ctx.seed = args.seed;
    ctx.trial = i;
    ctx.jobs = sweep_jobs();
    SpanRecorder untraced(false);
    ctx.spans = t.traced ? &spans : &untraced;
    const double t0 = elapsed();
    try {
      t.r = run_trial(args.workload, ctx);
      t.ok = t.r.failures.empty();
    } catch (const std::exception& e) {
      t.error = e.what();
    }
    t.wall_s = elapsed() - t0;
    trial_walls.push_back(t.wall_s);
    // Peak memory of a fresh process running the workload once: later
    // trials can leave the heap fragmented, by amounts that vary from run
    // to run.
    if (i == 0) first_trial_rss_mb = peak_rss_mb();
    trials.push_back(std::move(t));
  }

  // The pinned-digest gate at any seed: at another seed than the pinned
  // one, an untimed reference trial runs at the pinned seed, after the
  // measured trials. Its failure counts as one failed trial.
  std::vector<std::string> reference_failures;
  if (reference_due) {
    const std::string what =
        "reference trial at seed " + std::to_string(pinned->seed) + ": ";
    TrialContext ctx;
    ctx.seed = pinned->seed;
    ctx.jobs = sweep_jobs();
    try {
      const TrialResult r = run_trial(args.workload, ctx);
      for (const auto& f : r.failures) reference_failures.push_back(what + f);
      if (r.digest != pinned->digest) {
        reference_failures.push_back(what + "digest " + r.digest +
                                     " differs from pinned " + pinned->digest);
      }
    } catch (const std::exception& e) {
      reference_failures.push_back(what + "threw: " + e.what());
    }
  }

  // --- correctness ----------------------------------------------------------
  std::uint64_t failed = 0;
  std::optional<std::string> first_digest;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    Trial& t = trials[i];
    std::vector<std::string> why = t.r.failures;
    if (!t.error.empty()) why.push_back("threw: " + t.error);
    if (t.error.empty()) {
      if (!first_digest) first_digest = t.r.digest;
      if (t.r.digest != *first_digest) {
        why.push_back("digest " + t.r.digest + " differs from trial 0's " +
                      *first_digest);
      }
      if (pinned && pinned->seed == args.seed &&
          t.r.digest != pinned->digest) {
        why.push_back("digest " + t.r.digest + " differs from pinned " +
                      pinned->digest);
      }
    }
    if (!args.pinned.empty() && !pinned) {
      why.push_back(std::string("no pinned digest for ") + wname);
    }
    t.ok = why.empty();
    if (!t.ok) {
      // Trials of a deterministic simulation fail alike; show the first.
      if (failed == 0) {
        for (const auto& w : why) {
          std::cout << "FAIL trial " << i << ": " << w << "\n";
        }
      }
      ++failed;
    }
  }
  for (const auto& w : reference_failures) std::cout << "FAIL " << w << "\n";
  if (!reference_failures.empty()) ++failed;
  const std::uint64_t attempted = trials.size() + (reference_due ? 1 : 0);
  const Trial* ref = nullptr;
  for (const Trial& t : trials) {
    if (t.ok) {
      ref = &t;
      break;
    }
  }

  // --- span self times -----------------------------------------------------
  const std::vector<Span> all_spans = spans.spans();
  if (args.trace) {
    const auto self = self_times(all_spans);
    for (std::size_t i = 0; i < all_spans.size(); ++i) {
      const Span& s = all_spans[i];
      if (s.trial >= 0 && static_cast<std::size_t>(s.trial) < trials.size() &&
          s.name != "sweep.trial") {
        trials[static_cast<std::size_t>(s.trial)].self_s[s.name] += self[i];
      }
    }
  }

  // --- metrics ---------------------------------------------------------------
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  const double untraced_rate = median_of(trials, false, rate);
  if (ref != nullptr) {
    const TrialResult& r = ref->r;
    e2e["setup_s"] = median_of(trials, false, [](const TrialResult& x) {
      return x.setup_s;
    });
    e2e["sim_s_per_s"] = untraced_rate;
    e2e["peak_rss_mb"] = first_trial_rss_mb;
    e2e["model_bulk_mbps"] = r.model.bulk_mbps;

    layer = r.counts;
    layer["model_p99_us"] = r.model.p99_us;
    layer["model_p50_us"] = r.model.p50_us;
    layer["model_samples"] = static_cast<double>(r.model.samples);
    layer["model_viol_pct"] = r.model.viol_pct;
    layer.insert(probes.begin(), probes.end());
    const double events = static_cast<double>(r.events);
    // Host time spent inside run_until, summed over threads: per-event and
    // share figures stay comparable between one-thread and sweep workloads.
    const double run_ns =
        median_of(trials, false, [](const TrialResult& x) { return x.busy_s; }) *
        1e9;
    layer["sim.events"] = events;
    layer["sim.ns_per_event"] = events > 0 ? run_ns / events : 0.0;
    layer["sim.allocs_per_event"] =
        events > 0 ? static_cast<double>(r.allocs) / events : 0.0;
    const double trav = r.counts.count("fabric.traversals")
                            ? r.counts.at("fabric.traversals")
                            : 0.0;
    layer["fabric.events_per_traversal"] = trav > 0 ? events / trav : 0.0;
    layer["cluster.calibrate_s"] =
        median_of(trials, false,
                  [](const TrialResult& x) { return x.calibrate_s; });
    if (args.workload == WorkloadId::kSweepParallel) {
      layer["runner.parallel_eff"] =
          median_of(trials, false, [](const TrialResult& x) {
            return x.trial_host_s / (static_cast<double>(x.jobs) * x.run_s);
          });
      layer["runner.tail_idle_s"] = median_of(
          trials, false, [](const TrialResult& x) { return x.tail_idle_s; });
    } else {
      layer["runner.parallel_eff"] = 1.0;
      layer["runner.tail_idle_s"] = 0.0;
    }
    if (args.trace) {
      const double traced_rate = median_of(trials, true, rate);
      layer["obs.trace_overhead_pct"] =
          untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                            : 0.0;
      auto self_median = [&trials](const char* name) {
        std::vector<double> v;
        for (const Trial& t : trials) {
          if (!t.ok || !t.traced) continue;
          const auto it = t.self_s.find(name);
          v.push_back(it == t.self_s.end() ? 0.0 : it->second);
        }
        return median(v);
      };
      layer["host.construct_s"] = self_median("setup.construct");
      layer["host.deploy_s"] = self_median("setup.deploy");
      layer["host.slices_s"] = self_median("run.slice");
      layer["host.collect_s"] = self_median("collect");
      const double queue_ns = probes["sim.queue_ns.shallow"];
      const double trav_ns =
          probes[args.workload == WorkloadId::kLanesAllreduce ||
                         args.workload == WorkloadId::kLanesAllreduceLeaf
                     ? "fabric.traversal_ns.lanes"
                     : "fabric.traversal_ns.single_lane"];
      layer["est.queue_share_pct"] =
          run_ns > 0 ? queue_ns * events / run_ns * 100 : 0.0;
      layer["est.fabric_share_pct"] =
          run_ns > 0 ? trav_ns * trav / run_ns * 100 : 0.0;
    }
  }

  // --- human-readable report ---------------------------------------------
  std::printf("workload %s seed %llu: %llu trials (%llu traced), %llu failed, "
              "trial_fail_frac %.4f\n",
              wname, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(std::count_if(
                  trials.begin(), trials.end(),
                  [](const Trial& t) { return t.traced; })),
              static_cast<unsigned long long>(failed),
              attempted ? static_cast<double>(failed) / attempted : 1.0);
  if (ref != nullptr) {
    std::printf("digest %s%s\n", ref->r.digest.c_str(),
                !pinned                       ? " (no pinned digest)"
                : pinned->seed == args.seed   ? " (matches pinned)"
                : reference_failures.empty()  ? " (reference trial matches pinned)"
                                              : " (reference trial FAILED)");
    std::printf("model_p99_us %.3f (p50 %.3f, n=%llu), model_viol_pct %.4f, "
                "model_bulk_mbps %.3f\n",
                ref->r.model.p99_us, ref->r.model.p50_us,
                static_cast<unsigned long long>(ref->r.model.samples),
                ref->r.model.viol_pct, ref->r.model.bulk_mbps);
    std::vector<double> rates;
    for (const Trial& t : trials) {
      if (t.ok && !t.traced) rates.push_back(rate(t.r));
    }
    const Summary s = summarize(rates);
    std::printf("sim_s_per_s over %zu untraced trials: median %.4f, "
                "quartiles %.4f..%.4f (spread %.2f%%)\n",
                s.n, s.median, s.p25, s.p75, 100.0 * s.rel_iqr());
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    std::printf("trial %zu%s: wall %.3f s, setup %.4f s, run %.4f s, "
                "sim_s_per_s %.4f%s\n",
                i, t.traced ? " (traced)" : "", t.wall_s, t.r.setup_s,
                t.r.run_s, rate(t.r), t.ok ? "" : ", FAILED");
  }
  for (const MetricDef& d : end_to_end_metrics()) {
    const auto it = e2e.find(d.name);
    if (it != e2e.end()) {
      std::printf("  %-34s %16.6g %s\n", d.name, it->second, d.unit);
    }
  }
  for (const MetricDef& d : per_layer_metrics()) {
    const auto it = layer.find(d.name);
    if (it != layer.end()) {
      std::printf("  %-34s %16.6g %s\n", d.name, it->second, d.unit);
    }
  }
  if (args.trace) {
    std::printf("span self time (s), summed over traced trials:\n");
    for (const auto& [name, s] : self_time_by_name(all_spans)) {
      std::printf("  %-34s %12.6f\n", name.c_str(), s);
    }
    for (const Span& s : all_spans) {
      if (s.name == "sweep.trial") {
        std::printf("  sweep trial %d on worker %d: %.4f..%.4f s\n", s.trial,
                    s.worker, s.start_s, s.end_s);
      }
    }
  }

  const bool correct = failed == 0 && attempted > 0 && ref != nullptr;
  std::cout << result_line(correct, attempted, failed,
                           args.trace ? per_layer_metrics()
                                      : end_to_end_metrics(),
                           args.trace ? layer : e2e)
            << std::endl;
  return 0;
}
