// Runtime shuffle workloads: coflows of real payloads moved through the
// Table IV SwallowContext API of an in-process cluster, in a closed loop.
//
//   shuffle-codec  1 client; Wordcount payloads in 1 MiB partitions; a NIC
//                  fast enough (200 MiB/s) that encode/decode on one codec
//                  thread bounds the shuffle while Eq. 3 still compresses.
//   shuffle-wire   2 clients; seeded heavy-tailed partition sizes; mappers
//                  share egress ports; an 8 MiB/s NIC makes the rate
//                  limiters and port gates the bottleneck.
//
// A batch is a fixed list of coflows that the clients take one at a time
// (closed loop: a client starts its next coflow when the previous one is
// verified). A run cycles through a few distinct batches built at set-up.
// The coordinator calls scheduling() over every in-flight ref, then alloc(),
// at each arrival and each completion, as the paper's deployment does.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <set>
#include <thread>

#include "bench.hpp"
#include "codec/synth_data.hpp"
#include "runtime/context.hpp"

namespace swbench {

namespace {

namespace sw = swallow;
namespace rt = swallow::runtime;

constexpr std::size_t kMiB = 1 << 20;

struct ShuffleSpec {
  std::string name;
  std::size_t workers = 4;
  double nic_mib_s = 200;
  unsigned codec_threads = 1;
  unsigned clients = 1;
  std::size_t batch = 32;  ///< coflows per batch
  std::size_t distinct_batches = 1;
};

ShuffleSpec shuffle_spec(const std::string& name) {
  ShuffleSpec s;
  s.name = name;
  if (name == "shuffle-wire") {
    s.workers = 6;
    s.nic_mib_s = 8;
    s.codec_threads = 2;
    s.clients = 2;
    s.batch = 48;
    s.distinct_batches = 4;
  }
  return s;
}

/// 64-bit word-at-a-time checksum (length-seeded), used to verify every
/// pulled block against its pre-shuffle value.
std::uint64_t checksum(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  for (; i < data.size(); ++i) h = (h ^ data[i]) * 0x100000001b3ULL;
  return h;
}

struct Partition {
  std::span<const std::uint8_t> data;
  rt::WorkerId src = 0;
  rt::WorkerId dst = 0;
  std::uint64_t checksum = 0;
};

struct CoflowShape {
  std::vector<Partition> parts;
};

struct ShuffleSetup {
  std::vector<sw::codec::Buffer> payloads;  ///< distinct payload buffers
  std::vector<std::vector<CoflowShape>> batches;
  std::size_t batch_bytes = 0;  ///< over all distinct batches
  double reuse_factor = 0;
  std::unique_ptr<rt::Cluster> cluster;
};

rt::ClusterConfig cluster_config(const ShuffleSpec& spec) {
  rt::ClusterConfig c;
  c.num_workers = spec.workers;
  c.nic_rate = spec.nic_mib_s * kMiB;
  c.codec = sw::codec::CodecKind::kLzBalanced;
  c.codec_threads = spec.codec_threads;
  // No fault injection: any retry or timeout is a failure. Bounded waits
  // keep a lost block from hanging the run.
  c.retry.pull_timeout = 10.0;
  c.retry.max_attempts = 2;
  return c;
}

/// Inverse CDF of the bounded Pareto on [lo, hi] with shape alpha.
double bounded_pareto(double u, double lo, double hi, double alpha) {
  const double la = std::pow(lo, alpha), ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

ShuffleSetup build_setup(const ShuffleSpec& spec, std::uint64_t seed) {
  ShuffleSetup s;
  sw::common::Rng rng(seed);
  const auto& app = sw::codec::app_by_name("Wordcount");
  if (spec.name == "shuffle-codec") {
    // 8 distinct 1 MiB partitions; coflow k = 2 mappers x 2 reducers.
    for (int i = 0; i < 8; ++i) s.payloads.push_back(app.generate(kMiB, rng));
    auto& batch = s.batches.emplace_back();
    for (std::size_t k = 0; k < spec.batch; ++k) {
      CoflowShape c;
      for (rt::WorkerId m = 0; m < 2; ++m)
        for (rt::WorkerId r = 0; r < 2; ++r) {
          const auto& p = s.payloads[(4 * k + 2 * m + r) % s.payloads.size()];
          c.parts.push_back({p, m, static_cast<rt::WorkerId>(2 + r), 0});
        }
      batch.push_back(std::move(c));
    }
  } else {
    // Mappers on workers {0,1,2} (shared egress), reducers on {3,4,5}.
    // A coflow's partitions share one base size (mild lognormal skew per
    // partition); base sizes are the stratum midpoints of a bounded Pareto,
    // and in size order the coflows take the six (mappers, reducers)
    // shapes of {1,2,3} x {1,2} in a seeded rotation. Mappers and reducers
    // go to the least-loaded workers so far (ties in seeded order). So
    // every seed and batch has the same heavy-tailed mix of coflows in a
    // different arrangement. Each partition is a seeded slice of one 8 MiB
    // payload buffer.
    s.payloads.push_back(app.generate(8 * kMiB, rng));
    const auto& pool = s.payloads[0];
    for (std::size_t bi = 0; bi < spec.distinct_batches; ++bi) {
      std::vector<std::pair<std::size_t, std::size_t>> shapes;  // (m, r)
      for (std::size_t m = 1; m <= 3; ++m)
        for (std::size_t r = 1; r <= 2; ++r) shapes.emplace_back(m, r);
      rng.shuffle(shapes);
      std::vector<std::size_t> order(spec.batch);
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      std::vector<double> load(spec.workers);
      auto least_loaded = [&](std::vector<rt::WorkerId> ws, std::size_t k) {
        rng.shuffle(ws);
        std::stable_sort(ws.begin(), ws.end(),
                         [&](auto a, auto b) { return load[a] < load[b]; });
        ws.resize(k);
        return ws;
      };
      auto& batch = s.batches.emplace_back();
      for (const std::size_t rank : order) {
        const auto [m, r] = shapes[rank % shapes.size()];
        const double base = bounded_pareto(
            (static_cast<double>(rank) + 0.5) / static_cast<double>(spec.batch),
            64.0 * 1024, 4.0 * kMiB, 1.1);
        const auto mappers = least_loaded({0, 1, 2}, m);
        const auto reducers = least_loaded({3, 4, 5}, r);
        CoflowShape c;
        for (std::size_t a = 0; a < m; ++a)
          for (std::size_t b = 0; b < r; ++b) {
            const auto size = static_cast<std::size_t>(
                std::clamp(base * rng.lognormal(-0.03125, 0.25), 4096.0,
                           static_cast<double>(pool.size())));
            const std::size_t off = rng.uniform_int(0, pool.size() - size);
            c.parts.push_back({std::span(pool).subspan(off, size),
                               mappers[a], reducers[b], 0});
            load[mappers[a]] += static_cast<double>(size);
            load[reducers[b]] += static_cast<double>(size);
          }
        batch.push_back(std::move(c));
      }
    }
  }
  std::size_t distinct = 0;
  for (const auto& p : s.payloads) distinct += p.size();
  for (auto& batch : s.batches)
    for (auto& c : batch)
      for (auto& p : c.parts) {
        p.checksum = checksum(p.data);
        s.batch_bytes += p.data.size();
      }
  s.reuse_factor =
      static_cast<double>(s.batch_bytes) / static_cast<double>(distinct);
  s.cluster = std::make_unique<rt::Cluster>(cluster_config(spec));
  return s;
}

/// Host-time samples of the traced batches (thread-safe).
struct LayerSamples {
  std::mutex mutex;
  std::vector<double> push_ms, pull_ms, master_us;
  double master_s = 0;
};

/// jthread fan-out that keeps the first exception for the caller.
class TaskGroup {
 public:
  template <typename F>
  void spawn(F&& fn) {
    threads_.emplace_back([this, fn = std::forward<F>(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }
  void join_and_rethrow() {
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
  std::vector<std::jthread> threads_;
};

struct BatchResult {
  std::size_t index = 0;  ///< which distinct batch ran
  double wall_s = 0;
  std::vector<double> jct_s;
  std::size_t blocks = 0;
  std::size_t bad_blocks = 0;
  std::size_t verified_bytes = 0;
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
  std::size_t compressed_raw_bytes = 0;  ///< raw bytes of beta = 1 flows
  std::size_t max_port_wire_bytes = 0;
  std::uint64_t chunks_encoded = 0;
  std::uint64_t chunks_decoded = 0;
  std::uint64_t master_calls = 0;
  std::vector<std::string> errors;
};

class ClosedLoop {
 public:
  ClosedLoop(const ShuffleSpec& spec, ShuffleSetup& setup)
      : spec_(spec), setup_(setup), cluster_(*setup.cluster),
        ctx_(cluster_) {}

  BatchResult run_batch(std::size_t index, LayerSamples* samples) {
    const std::vector<CoflowShape>& batch = setup_.batches[index];
    BatchResult b;
    b.index = index;
    b.jct_s.resize(batch.size(), -1);
    samples_ = samples;
    result_ = &b;
    std::vector<std::size_t> port_before(cluster_.size());
    for (rt::WorkerId w = 0; w < cluster_.size(); ++w)
      port_before[w] = cluster_.worker(w).wire_bytes_sent();
    const std::size_t wire_before = cluster_.total_wire_bytes();
    const std::uint64_t enc_before = cluster_.ledger().chunks_encoded();
    const std::uint64_t dec_before = cluster_.ledger().chunks_decoded();

    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> clients;
      for (unsigned c = 0; c < spec_.clients; ++c)
        clients.emplace_back([&] {
          for (std::size_t k; (k = next.fetch_add(1)) < batch.size();)
            run_coflow(batch[k], k);
        });
    }
    b.wall_s = seconds_since(t0);

    b.wire_bytes = cluster_.total_wire_bytes() - wire_before;
    for (rt::WorkerId w = 0; w < cluster_.size(); ++w)
      b.max_port_wire_bytes =
          std::max(b.max_port_wire_bytes,
                   cluster_.worker(w).wire_bytes_sent() - port_before[w]);
    b.chunks_encoded = cluster_.ledger().chunks_encoded() - enc_before;
    b.chunks_decoded = cluster_.ledger().chunks_decoded() - dec_before;
    result_ = nullptr;
    return b;
  }

 private:
  /// scheduling() over every in-flight ref, then alloc(). Caller holds
  /// mutex_.
  void reschedule(std::uint64_t coflow_seq) {
    const std::vector<rt::CoflowRef> refs(inflight_.begin(), inflight_.end());
    const auto t0 = Clock::now();
    ctx_.alloc(ctx_.scheduling(refs));
    const auto t1 = Clock::now();
    ++result_->master_calls;
    if (samples_ != nullptr) {
      const double s = std::chrono::duration<double>(t1 - t0).count();
      const std::lock_guard<std::mutex> lock(samples_->mutex);
      samples_->master_us.push_back(s * 1e6);
      samples_->master_s += s;
      if (SpanLog* log = spans())
        log->record("master.scheduling_alloc", coflow_seq, coflow_seq, t0,
                    t1);
    }
  }

  template <typename F>
  void timed(std::vector<double> LayerSamples::*field, const char* span,
             std::uint64_t seq, F&& fn) {
    if (samples_ == nullptr) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(samples_->mutex);
      (samples_->*field)
          .push_back(std::chrono::duration<double, std::milli>(t1 - t0)
                         .count());
    }
    if (SpanLog* log = spans()) log->record(span, seq, seq, t0, t1);
  }

  void run_coflow(const CoflowShape& shape, std::size_t k) {
    const std::uint64_t seq = coflow_seq_.fetch_add(1) + 1;
    const rt::BlockId base = next_block_.fetch_add(shape.parts.size());
    std::set<rt::WorkerId> srcs, dsts;
    for (const Partition& p : shape.parts) {
      srcs.insert(p.src);
      dsts.insert(p.dst);
    }

    rt::CoflowRef ref = 0;
    Clock::time_point t_add;
    std::size_t compressed_raw = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < shape.parts.size(); ++i) {
        const Partition& p = shape.parts[i];
        cluster_.worker(p.src).register_flow(rt::FlowInfo{
            base + i, 0, p.src, p.dst, p.data.size(), true});
      }
      std::vector<rt::FlowInfo> flows;
      for (const rt::WorkerId w : srcs) {
        auto f = ctx_.hook(w);
        flows.insert(flows.end(), f.begin(), f.end());
      }
      t_add = Clock::now();
      ref = ctx_.add(ctx_.aggregate(std::move(flows)));
      inflight_.insert(ref);
      reschedule(seq);
      for (std::size_t i = 0; i < shape.parts.size(); ++i)
        if (cluster_.master().decision_of(base + i).compress)
          compressed_raw += shape.parts[i].data.size();
    }

    std::atomic<std::size_t> bad{0}, verified_bytes{0};
    std::string error;
    TaskGroup tasks;
    for (const rt::WorkerId w : srcs)
      tasks.spawn([&, w] {
        for (std::size_t i = 0; i < shape.parts.size(); ++i) {
          const Partition& p = shape.parts[i];
          if (p.src != w) continue;
          timed(&LayerSamples::push_ms, "rt.push", seq, [&] {
            ctx_.push(ref, base + i, p.data, p.src, p.dst);
          });
        }
      });
    for (const rt::WorkerId w : dsts)
      tasks.spawn([&, w] {
        for (std::size_t i = 0; i < shape.parts.size(); ++i) {
          const Partition& p = shape.parts[i];
          if (p.dst != w) continue;
          sw::codec::Buffer data;
          timed(&LayerSamples::pull_ms, "rt.pull", seq,
                [&] { data = ctx_.pull(ref, base + i, p.dst); });
          if (data.size() == p.data.size() && checksum(data) == p.checksum)
            verified_bytes += data.size();
          else
            ++bad;
        }
      });
    try {
      tasks.join_and_rethrow();
    } catch (const std::exception& e) {
      error = e.what();
    }
    const auto t_done = Clock::now();
    if (SpanLog* log = spans(); log != nullptr && samples_ != nullptr)
      log->record("shuffle.coflow", seq, 0, t_add, t_done);

    const std::lock_guard<std::mutex> lock(mutex_);
    ctx_.remove(ref);
    inflight_.erase(ref);
    reschedule(seq);
    BatchResult& b = *result_;
    b.blocks += shape.parts.size();
    b.raw_bytes += [&] {
      std::size_t n = 0;
      for (const Partition& p : shape.parts) n += p.data.size();
      return n;
    }();
    b.compressed_raw_bytes += compressed_raw;
    b.verified_bytes += verified_bytes;
    if (!error.empty()) {
      // A thrown ShuffleError leaves the remaining blocks unverified.
      b.bad_blocks += shape.parts.size();
      b.errors.push_back("coflow " + std::to_string(seq) + ": " + error);
    } else {
      b.bad_blocks += bad;
      if (bad > 0)
        b.errors.push_back("coflow " + std::to_string(seq) + ": " +
                           std::to_string(bad.load()) +
                           " blocks failed verification");
      b.jct_s[k] = std::chrono::duration<double>(t_done - t_add).count();
    }
  }

  const ShuffleSpec& spec_;
  ShuffleSetup& setup_;
  rt::Cluster& cluster_;
  rt::SwallowContext ctx_;
  std::mutex mutex_;  ///< the coordinator: registration, add/remove, scheduling
  std::set<rt::CoflowRef> inflight_;
  std::atomic<std::uint64_t> coflow_seq_{0};
  std::atomic<rt::BlockId> next_block_{1};
  LayerSamples* samples_ = nullptr;
  BatchResult* result_ = nullptr;
};

struct CodecStandalone {
  double encode_mbps = 0;
  double decode_mbps = 0;
  double ratio = 0;
  bool roundtrip_ok = true;
};

/// chunk_compress/chunk_decompress over the first batch's distinct payload
/// slices, with the cluster's codec, chunk size and pool size. Median of
/// three passes.
CodecStandalone measure_codec(const ShuffleSpec& spec,
                              const ShuffleSetup& setup) {
  const rt::ClusterConfig cfg = cluster_config(spec);
  const auto codec = sw::codec::make_codec(cfg.codec);
  sw::codec::ChunkPool pool(cfg.codec_threads);
  std::set<std::pair<const std::uint8_t*, std::size_t>> seen;
  std::vector<std::span<const std::uint8_t>> inputs;
  for (const auto& c : setup.batches[0])
    for (const auto& p : c.parts)
      if (seen.insert({p.data.data(), p.data.size()}).second)
        inputs.push_back(p.data);

  CodecStandalone r;
  std::vector<double> enc, dec;
  for (int pass = 0; pass < 3; ++pass) {
    double raw = 0, wire = 0, enc_s = 0, dec_s = 0;
    for (const auto& in : inputs) {
      const auto t0 = Clock::now();
      const sw::codec::Buffer frame =
          sw::codec::chunk_compress(*codec, in, cfg.chunk_bytes, &pool);
      const auto t1 = Clock::now();
      const sw::codec::Buffer out =
          sw::codec::chunk_decompress(frame, &pool);
      const auto t2 = Clock::now();
      if (SpanLog* log = spans()) {
        log->record("codec.chunk_compress", 0, 0, t0, t1);
        log->record("codec.chunk_decompress", 0, 0, t1, t2);
      }
      enc_s += std::chrono::duration<double>(t1 - t0).count();
      dec_s += std::chrono::duration<double>(t2 - t1).count();
      raw += static_cast<double>(in.size());
      wire += static_cast<double>(frame.size());
      if (out.size() != in.size() ||
          !std::equal(out.begin(), out.end(), in.begin()))
        r.roundtrip_ok = false;
    }
    enc.push_back(raw / enc_s / 1e6);
    dec.push_back(raw / dec_s / 1e6);
    r.ratio = wire / raw;
  }
  r.encode_mbps = median(enc);
  r.decode_mbps = median(dec);
  return r;
}

}  // namespace

bool is_shuffle_workload(const std::string& name) {
  return name == "shuffle-codec" || name == "shuffle-wire";
}

Report run_shuffle_workload(const Options& opt) {
  Report report;
  const ShuffleSpec spec = shuffle_spec(opt.workload);

  // Set-up: payload generation + checksums + Cluster construction, five
  // times; the median is setup_s and the last one is used.
  std::vector<double> setup_s;
  ShuffleSetup setup;
  for (int i = 0; i < 5; ++i) {
    setup = ShuffleSetup{};  // joins the previous cluster's threads
    const auto t0 = Clock::now();
    setup = build_setup(spec, opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  ClosedLoop loop(spec, setup);
  const rt::FaultStats faults_before = setup.cluster->fault_stats();

  // Whole cycles over the distinct batches, so each weighs the same in the
  // pooled numbers; at least one cycle, and enough batches that the p90
  // JCT has at least 10 samples beyond it.
  const std::size_t n_batches = setup.batches.size();
  const std::size_t min_batches =
      std::max(n_batches, (100 + spec.batch - 1) / spec.batch);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);

  std::vector<BatchResult> untraced, traced;
  LayerSamples samples;
  std::size_t batches = 0;
  auto account = [&](BatchResult&& b, bool is_traced) {
    report.attempted += b.blocks;
    report.failed += b.bad_blocks;
    for (auto& e : b.errors) report.violation(std::move(e));
    (is_traced ? traced : untraced).push_back(std::move(b));
    ++batches;
  };
  std::size_t i = 0;
  do {
    const std::size_t index = i++ % n_batches;
    account(loop.run_batch(index, nullptr), false);
    if (opt.trace) account(loop.run_batch(index, &samples), true);
  } while ((Clock::now() < deadline || i % n_batches != 0 ||
            untraced.size() < min_batches) &&
           batches < 10000 && report.correct);

  const rt::FaultStats faults = setup.cluster->fault_stats();
  const std::size_t retries = faults.retries - faults_before.retries;
  const std::size_t timeouts =
      faults.pull_timeouts - faults_before.pull_timeouts;
  const std::size_t corrupt =
      faults.corrupt_frames - faults_before.corrupt_frames;
  const std::size_t evictions =
      faults.gate_evictions - faults_before.gate_evictions;
  const std::size_t fault_events = retries + timeouts + corrupt + evictions +
                                   faults.total_injected() -
                                   faults_before.total_injected();
  if (fault_events > 0) {
    report.failed += fault_events;
    report.violation("fault counters moved: " + std::to_string(retries) +
                     " retries, " + std::to_string(timeouts) +
                     " pull timeouts, " + std::to_string(corrupt) +
                     " corrupt frames, " + std::to_string(evictions) +
                     " gate evictions");
  }

  // Mean over the distinct batches of each batch's median wall time.
  auto batch_wall = [n_batches](const std::vector<BatchResult>& bs) {
    std::vector<std::vector<double>> per(n_batches);
    for (const auto& b : bs) per[b.index].push_back(b.wall_s);
    double sum = 0;
    for (const auto& w : per) sum += median(w);
    return sum / static_cast<double>(n_batches);
  };
  auto jcts = [](const std::vector<BatchResult>& bs) {
    std::vector<double> j;
    for (const auto& b : bs)
      for (const double x : b.jct_s)
        if (x >= 0) j.push_back(x);
    return j;
  };

  if (!opt.trace) {
    const std::vector<double> jct = jcts(untraced);
    double verified = 0, total_wall = 0, raw = 0, wire = 0;
    for (const auto& b : untraced) {
      verified += static_cast<double>(b.verified_bytes);
      total_wall += b.wall_s;
      raw += static_cast<double>(b.raw_bytes);
      wire += static_cast<double>(b.wire_bytes);
    }
    double jct_sum = 0;
    for (const double x : jct) jct_sum += x;
    report.add("wall_s", batch_wall(untraced), "s");
    report.add("cct_avg_s", jct.empty() ? 0 : jct_sum / jct.size(), "s");
    report.add("cct_p50_s", quantile(jct, 0.5), "s");
    report.add("cct_tail_s", quantile(jct, 0.9), "s");
    report.add("goodput_MBps", total_wall > 0 ? verified / total_wall / 1e6 : 0,
               "MB/s");
    report.add("traffic_reduction", raw > 0 ? 1 - wire / raw : 0,
               "fraction");
    // No shuffle coflow carries a deadline: the library's convention for a
    // deadline-free run is a met fraction of 1.
    report.add("deadline_met_frac", 1.0, "fraction");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cerr << "swbench: " << untraced.size() << " batches of "
              << spec.batch << " coflows, " << jct.size()
              << " JCT samples (tail = p90)\n";
    return report;
  }

  // ---- Traced run: layer numbers from the traced batches. ----
  const CodecStandalone codec = measure_codec(spec, setup);
  if (!codec.roundtrip_ok) {
    ++report.failed;
    report.violation("standalone codec round trip mismatch");
  }
  const double wall = batch_wall(traced);
  const BatchResult& first = traced.front();  // batch 0: exact counts
  const double nic = spec.nic_mib_s * kMiB;
  std::vector<double> wire_share;
  double compressed_raw = 0;  // mean per traced batch
  for (const auto& b : traced) {
    wire_share.push_back(static_cast<double>(b.max_port_wire_bytes) / nic /
                         b.wall_s);
    compressed_raw += static_cast<double>(b.compressed_raw_bytes) /
                      static_cast<double>(traced.size());
  }
  auto share = [wall](double s) { return wall > 0 ? s / wall : 0.0; };

  report.add("master.calls", static_cast<double>(first.master_calls),
             "count");
  report.add("master.sched_us_p50", quantile(samples.master_us, 0.5), "us");
  report.add("master.share",
             share(samples.master_s / static_cast<double>(traced.size())),
             "fraction");
  report.add("push.ms_p50", quantile(samples.push_ms, 0.5), "ms");
  report.add("push.ms_p99", quantile(samples.push_ms, 0.99), "ms");
  report.add("pull.ms_p50", quantile(samples.pull_ms, 0.5), "ms");
  report.add("pull.ms_p99", quantile(samples.pull_ms, 0.99), "ms");
  report.add("codec.encode_MBps", codec.encode_mbps, "MB/s");
  report.add("codec.decode_MBps", codec.decode_mbps, "MB/s");
  report.add("codec.ratio", codec.ratio, "fraction");
  report.add("codec.encode_share",
             share(compressed_raw / (codec.encode_mbps * 1e6)), "fraction");
  report.add("codec.decode_share",
             share(compressed_raw / (codec.decode_mbps * 1e6)), "fraction");
  report.add("codec.ledger_encode_MBps",
             setup.cluster->ledger().encode_mbps(), "MB/s");
  report.add("codec.chunks_encoded", static_cast<double>(first.chunks_encoded),
             "count");
  report.add("codec.chunks_decoded", static_cast<double>(first.chunks_decoded),
             "count");
  report.add("payload.reuse_factor", setup.reuse_factor, "x");
  report.add("wire.bytes", static_cast<double>(first.wire_bytes), "bytes");
  report.add("wire.floor_s",
             static_cast<double>(first.max_port_wire_bytes) / nic, "s");
  report.add("wire.share", median(wire_share), "fraction");
  report.add("gate.evictions", static_cast<double>(evictions), "count");
  report.add("rt.retries", static_cast<double>(retries), "count");
  report.add("rt.pull_timeouts", static_cast<double>(timeouts), "count");
  report.add("rt.corrupt_frames", static_cast<double>(corrupt), "count");
  report.add("cct.samples", static_cast<double>(jcts(traced).size()),
             "count");
  const double untraced_wall = batch_wall(untraced);
  report.add("trace.overhead_frac",
             untraced_wall > 0 ? wall / untraced_wall - 1 : 0, "fraction");
  std::cerr << "swbench: " << traced.size() << " traced / "
            << untraced.size() << " untraced batches of " << spec.batch
            << " coflows\n";
  return report;
}

}  // namespace swbench
