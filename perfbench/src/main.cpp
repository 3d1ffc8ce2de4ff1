// hcube_perfbench: the benchmark driver.
//
//   hcube_perfbench --workload <join-wave|churn-lossy>
//                   [--seed N] [--seconds S] [--trace 0|1]
//   hcube_perfbench --selftest
//
// Prints each metric by name with its unit, the correctness-gate tally and,
// as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 1 when any correctness gate failed.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

// Counting allocator for net.allocs_per_msg: every global operator new
// bumps one relaxed counter, then defers to malloc.
void* operator new(std::size_t size) {
  hcube::perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  hcube::perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The replacement operator new above allocates with malloc, so free() is
// the matching deallocator; GCC's -Wmismatched-new-delete can't see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hcube::perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_outcome(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : out.metrics)
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("fail_ratio %.6f (%llu failed of %llu attempted)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : out.failures)
    std::printf("FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ---- self-test at reduced size ----

struct Check {
  int failures = 0;
  void expect(bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  }
};

void selftest_self_time(Check& c) {
  // root [0,100) has children A [10,30) and B [40,70); A has child G [12,20).
  const std::vector<Span> spans = {
      {0, 100, -1, SpanName::kSimDrain},
      {10, 30, 0, SpanName::kCoreHandle},
      {12, 20, 1, SpanName::kNetSend},
      {40, 70, 0, SpanName::kCoreJoinStart},
  };
  const SpanTable t = reduce_spans(spans);
  const auto at = [&t](SpanName n) { return t[static_cast<std::size_t>(n)]; };
  c.expect(at(SpanName::kSimDrain).self_ns == 50 &&
               at(SpanName::kSimDrain).root_ns == 100,
           "self time: root = 100 - 20 - 30");
  c.expect(at(SpanName::kCoreHandle).self_ns == 12 &&
               at(SpanName::kCoreHandle).total_ns == 20,
           "self time: child = 20 - 8");
  c.expect(at(SpanName::kNetSend).self_ns == 8 &&
               at(SpanName::kCoreJoinStart).self_ns == 30,
           "self time: leaves keep their whole duration");

  SpanLog log;
  {
    SpanScope outer(&log, SpanName::kSimDrain);
    { SpanScope a(&log, SpanName::kCoreHandle); }
    { SpanScope b(&log, SpanName::kNetSend); }
  }
  const std::vector<Span>& s = log.spans(lane_scratch_slot());
  c.expect(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
               s[2].parent == 0 && s[0].end_ns >= s[2].end_ns,
           "span log: nested scopes record their parent");
}

void selftest_quantiles(Check& c) {
  std::vector<double> v;
  for (int i = 10'000; i >= 1; --i) v.push_back(i);  // 1..10000, reversed
  c.expect(quantile(v, 0.5) == 5001.0 && quantile(v, 0.999) == 9991.0,
           "quantile: the sample with floor(q * N) samples below it");
  c.expect(tail_quantile_for(10'000) == 0.999 &&
               tail_quantile_for(240) == 0.95 &&
               tail_quantile_for(2'000) == 0.99,
           "tail: highest percentile with >= 10 samples above it");
}

WaveSpec small_wave() {
  WaveSpec s;
  s.n = 2000;
  s.m = 200;
  s.lookups = 2000;
  return s;
}

void selftest_digests(Check& c) {
  const WaveSpec spec = small_wave();
  const std::uint64_t k1 = wave_digest(spec, 7, 1, false);
  c.expect(k1 == wave_digest(spec, 7, 1, false),
           "wave digest repeats run to run (counts and tables)");
  c.expect(k1 == wave_digest(spec, 7, 2, false), "wave digest K=1 == K=2");
  c.expect(k1 == wave_digest(spec, 7, 2, true),
           "wave digest unchanged by the probe (traced K=2)");
  c.expect(k1 != wave_digest(spec, 8, 1, false),
           "wave digest depends on the seed");
}

void selftest_workloads(Check& c) {
  RunOptions opt;
  opt.seed = 3;
  opt.seconds = 0.0;  // the minimum number of reps
  opt.trace = true;
  const Outcome wave = run_wave_workload(small_wave(), opt);
  c.expect(wave.correct() && wave.failed == 0,
           "traced wave passes every gate (traced K=1 and K=2 digests "
           "equal the untraced one)");

  ChurnSpec churn;
  churn.n_seed = 64;
  churn.steady_windows = 2;
  churn.lookups = 500;
  const Outcome ch = run_churn_workload(churn, opt);
  c.expect(ch.correct(), "traced churn passes every gate (oracles, "
                         "traced digest == untraced digest)");

  WaveSpec stall = small_wave();
  stall.stall_joiner = 5;
  opt.trace = false;
  const Outcome st = run_wave_workload(stall, opt);
  c.expect(st.failed > 0 && !st.correct() && st.attempted > st.failed,
           "a drop filter stalling one join makes fail_ratio > 0");
}

int selftest() {
  Check c;
  selftest_self_time(c);
  selftest_quantiles(c);
  selftest_digests(c);
  selftest_workloads(c);
  std::printf("selftest: %s (%d failed)\n", c.failures == 0 ? "ok" : "FAILED",
              c.failures);
  return c.failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hcube_perfbench --workload "
               "<join-wave|churn-lossy> [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "       hcube_perfbench --selftest\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
      continue;
    }
    if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strtoul(val, &end, 10) != 0;
    } else {
      return usage();
    }
    if (end == val || *end != '\0') return usage();
  }

  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Outcome out;
  if (workload == "join-wave") {
    out = run_wave_workload(WaveSpec{}, opt);
  } else if (workload == "churn-lossy") {
    out = run_churn_workload(ChurnSpec{}, opt);
  } else {
    return usage();
  }
  print_outcome(out);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hcube::perfbench

int main(int argc, char** argv) {
  return hcube::perfbench::main_impl(argc, argv);
}
