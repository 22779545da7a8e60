// Host context: CPU count, effective parallelism, build identity, RSS.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef SWBENCH_BUILD_TYPE
#define SWBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SWBENCH_COMPILER
#define SWBENCH_COMPILER "unknown"
#endif

namespace swbench {

namespace {

/// Fixed integer work the optimizer cannot drop or vectorize away.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_spin_sink{0};

double time_spin(unsigned threads, std::uint64_t iters) {
  const auto t0 = Clock::now();
  std::vector<std::jthread> pool;
  for (unsigned i = 0; i < threads; ++i)
    pool.emplace_back([iters] { g_spin_sink += spin(iters); });
  pool.clear();
  return seconds_since(t0);
}

}  // namespace

HostContext probe_host(const std::string& revision) {
  HostContext host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.build_type = SWBENCH_BUILD_TYPE;
  host.compiler = SWBENCH_COMPILER;
  host.revision = revision.empty() ? "unknown" : revision;

  // Calibrate one thread's spin to ~50 ms, then run nproc copies at once:
  // effective parallelism = nproc * t1 / tn (nproc on an idle, honest host).
  std::uint64_t iters = 1 << 20;
  double t1 = time_spin(1, iters);
  while (t1 < 0.05) {
    iters *= 2;
    t1 = time_spin(1, iters);
  }
  std::vector<double> single, multi;
  for (int rep = 0; rep < 2; ++rep) {
    single.push_back(time_spin(1, iters));
    multi.push_back(time_spin(host.nproc, iters));
  }
  host.spin_parallelism =
      static_cast<double>(host.nproc) * median(single) / median(multi);
  return host;
}

std::string host_json(const HostContext& host) {
  std::ostringstream out;
  out << "{\"host.nproc\":" << host.nproc
      << ",\"host.spin_parallelism\":" << host.spin_parallelism
      << ",\"build_type\":\"" << host.build_type << "\",\"compiler\":\""
      << host.compiler << "\",\"revision\":\"" << host.revision << "\"}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace swbench
