// The benchmark workloads (join-wave, churn-lossy) and the per-run
// bookkeeping they share.
//
// A workload runs repetitions ("reps") of its seeded inputs until the
// measured time reaches the requested seconds, then reports the median of
// each timing over its reps. Untraced runs report the end-to-end metrics;
// traced runs pair each untraced rep with traced ones and report the
// per-layer metrics of the traced reps, plus the tracing overhead between
// the two kinds.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hcube::perfbench {

// Global operator new calls since process start (main.cpp replaces it).
extern std::atomic<std::uint64_t> g_allocs;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  // Whether rep `i` should run, given the workload's minimum untraced rep
  // count, the measured seconds so far, the run's elapsed seconds and the
  // last rep's duration. Traced runs need one untraced/traced pair. No rep
  // may end past 140 s, well inside the benchmark's per-run time limit.
  bool more_reps(int i, int min_reps, double measured, double elapsed,
                 double last_rep_s) const {
    if (i == 0) return true;
    if (elapsed + last_rep_s >= 140.0) return false;
    return i < (trace ? 1 : min_reps) || measured < seconds;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. Every correctness gate counts as one
// attempted operation; joins and lookups count one each.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed gate
  std::vector<Metric> metrics;        // end-to-end, or per-layer if traced
  std::vector<std::string> notes;     // human-readable extras

  bool correct() const { return failures.empty() && failed == 0; }
  // Records one check; `what` describes the failure.
  void gate(bool ok, const std::string& what);
  // Records `n` operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad, const std::string& what);
};

struct WaveSpec {
  std::size_t n = 100'000;        // consistent network built offline
  std::size_t m = 10'000;         // joiners, one every 0.05 ms
  std::size_t lookups = 1'000'000;
  // One rep's timings vary by several percent on a shared machine; five
  // reps per median kept the run-to-run spread of wall_s under 8%.
  int min_reps = 5;
  // Self-test only: when < m, every message joiner #stall_joiner sends is
  // dropped above the network stack, so its join never completes.
  std::size_t stall_joiner = std::numeric_limits<std::size_t>::max();
};

struct ChurnSpec {
  std::uint32_t n_seed = 1000;
  std::uint32_t steady_windows = 30;  // of 8 joins/s and 4 leaves/s
  std::size_t lookups = 5'000'000;    // over the seed network
  // Reps pool their scripts' joins; three (about 700 joins) kept every
  // spread under 8%, and more did not narrow it.
  int min_reps = 3;
};

Outcome run_wave_workload(const WaveSpec& spec, const RunOptions& opt);
Outcome run_churn_workload(const ChurnSpec& spec, const RunOptions& opt);

// ---- pieces the self-test drives directly ----

// Outcome digest of one wave rep at `lanes` lanes: counters, every
// joiner's join latency and every table entry of every node.
std::uint64_t wave_digest(const WaveSpec& spec, std::uint64_t seed,
                          std::uint32_t lanes, bool traced);

// The sample with floor(q * N) samples below it (0 for an empty set).
double quantile(std::vector<double> samples, double q);
// The highest of p90/p95/p99/p99.9 with at least ten samples above it
// (p50 when none has).
double tail_quantile_for(std::size_t samples);

}  // namespace hcube::perfbench
