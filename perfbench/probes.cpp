// Statistics, the in-memory span log and the forwarding decorators.
#include <algorithm>
#include <atomic>
#include <fstream>

#include "bench.hpp"

namespace swbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

void SpanLog::record(const char* name, std::uint64_t id, std::uint64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, id, parent, ns(start), ns(end) - ns(start),
                        thread_index()});
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write_chrome(const std::filesystem::path& path,
                           const std::string& metadata) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "],\"otherData\":" << metadata << ",\"droppedSpans\":" << dropped_
      << "}\n";
}

namespace {
std::atomic<SpanLog*> g_spans{nullptr};
std::atomic<std::uint32_t> g_next_tid{1};
}  // namespace

SpanLog* spans() { return g_spans.load(std::memory_order_acquire); }
void set_spans(SpanLog* log) { g_spans.store(log, std::memory_order_release); }

std::uint32_t thread_index() {
  thread_local const std::uint32_t tid = g_next_tid.fetch_add(1);
  return tid;
}

swallow::fabric::Allocation TimedScheduler::schedule(
    const swallow::sched::SchedContext& ctx) {
  ++rounds_;
  if (!timed_) return inner_->schedule(ctx);
  const auto t0 = Clock::now();
  swallow::fabric::Allocation alloc = inner_->schedule(ctx);
  const auto t1 = Clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  busy_s_ += s;
  round_us_.push_back(s * 1e6);
  if (SpanLog* log = spans()) log->record("sched.schedule", replay_id_,
                                          replay_id_, t0, t1);
  return alloc;
}

}  // namespace swbench
