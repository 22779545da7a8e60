// Shared declarations of the end-to-end benchmark program (swbench).
//
// swbench measures the program from outside: it calls the public API
// (sim::run_simulation, the Table IV SwallowContext calls, the standalone
// chunk codec) and times those calls from its own code. Layer timing in the
// traced run comes from forwarding decorators (TimedScheduler, CountingCpu)
// and from spans recorded around each outside call; no obs::Sink is ever
// attached, so the traced run executes the same code paths as the untraced
// one.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "sched/scheduler.hpp"

namespace swbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (recovery dirs, span files).
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome, printed as the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Diagnostics printed on stderr (first few correctness violations).
  std::vector<std::string> violations;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void violation(std::string what) {
    correct = false;
    if (violations.size() < 20) violations.push_back(std::move(what));
  }
};

// ---- Statistics ----

/// Linear-interpolated quantile (R-7), q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

// ---- Spans (traced run only) ----

/// In-memory span log. Spans of one request (a replay, a coflow) share an
/// `id`; `parent` names the span that caused this one (0 = root).
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t tid;
  };

  explicit SpanLog(std::size_t cap = 400000) : cap_(cap) {}

  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end);
  std::size_t size() const;
  /// Writes the spans as a Chrome trace ("X" events, microseconds), with
  /// `metadata` (a JSON object) under the top-level "otherData" key.
  void write_chrome(const std::filesystem::path& path,
                    const std::string& metadata) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t cap_;
  std::size_t dropped_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// Process-wide span log of the traced run (null in untraced runs).
SpanLog* spans();
void set_spans(SpanLog* log);

/// Small per-thread id for span records.
std::uint32_t thread_index();

// ---- Forwarding decorators ----

/// Forwards every Scheduler virtual to `inner`; times schedule() when
/// `timed`, otherwise only counts rounds. Recording spans needs a SpanLog
/// and a replay id.
class TimedScheduler final : public swallow::sched::Scheduler {
 public:
  TimedScheduler(swallow::sched::Scheduler& inner, bool timed,
                 std::uint64_t replay_id = 0)
      : inner_(&inner), timed_(timed), replay_id_(replay_id) {}

  std::string name() const override { return inner_->name(); }
  swallow::fabric::Allocation schedule(
      const swallow::sched::SchedContext& ctx) override;
  void save_state(swallow::recovery::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(swallow::recovery::StateReader& r) override {
    inner_->restore_state(r);
  }

  std::uint64_t rounds() const { return rounds_; }
  double busy_s() const { return busy_s_; }
  const std::vector<double>& round_us() const { return round_us_; }

 private:
  swallow::sched::Scheduler* inner_;
  bool timed_;
  std::uint64_t replay_id_;
  std::uint64_t rounds_ = 0;
  double busy_s_ = 0;
  std::vector<double> round_us_;
};

/// Forwards every CpuProvider virtual to `inner`, counting headroom calls.
/// headroom_constant_until must be forwarded: the base default promises
/// nothing and would make the engine re-evaluate every slice.
class CountingCpu final : public swallow::cpu::CpuProvider {
 public:
  explicit CountingCpu(const swallow::cpu::CpuProvider& inner)
      : inner_(&inner) {}

  double headroom(swallow::cpu::NodeId node,
                  swallow::common::Seconds t) const override {
    ++headroom_calls_;
    return inner_->headroom(node, t);
  }
  bool can_compress(swallow::cpu::NodeId node,
                    swallow::common::Seconds t) const override {
    return inner_->can_compress(node, t);
  }
  swallow::common::Seconds headroom_constant_until(
      swallow::cpu::NodeId node, swallow::common::Seconds t) const override {
    return inner_->headroom_constant_until(node, t);
  }

  std::uint64_t headroom_calls() const { return headroom_calls_; }

 private:
  const swallow::cpu::CpuProvider* inner_;
  mutable std::uint64_t headroom_calls_ = 0;
};

// ---- Host context ----

struct HostContext {
  unsigned nproc = 0;
  double spin_parallelism = 0;
  std::string build_type;
  std::string compiler;
  std::string revision;
};

/// Measures the host (a calibrated spin probe of ~0.2 s) and collects the
/// build identity. `revision` comes from the caller (the checkout may not
/// be a git repository).
HostContext probe_host(const std::string& revision);
std::string host_json(const HostContext& host);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

// ---- Workloads ----

bool is_sim_workload(const std::string& name);
bool is_shuffle_workload(const std::string& name);
Report run_sim_workload(const Options& opt);
Report run_shuffle_workload(const Options& opt);

}  // namespace swbench
