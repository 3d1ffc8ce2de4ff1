// Bench-side tracing for hcube_perfbench.
//
// Every span here is recorded from OUTSIDE the library, around calls into
// its public API: the probe Transport below sits between the Overlay and
// the real network stack, so it sees each protocol send going down and each
// delivery handler the overlay registered being called from below. The
// workload code wraps the coarse public calls (build, drain, route,
// consistency check, chaos run) in spans of its own.
//
// Spans live in per-lane logs (one per sharded-simulator lane plus a spare
// slot for code running outside any lane), so worker threads never share a
// log. A span records its name, start, end and the index of the span that
// was open on the same lane when it began (its parent). Self time is a
// span's duration minus the durations of its direct children.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "net/transport.h"
#include "sim/shard_context.h"

namespace hcube::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : std::uint8_t {
  kNetSend,         // probe: Transport::send into the stack
  kCoreHandle,      // probe: an overlay delivery handler (Node::handle)
  kCoreJoinStart,   // workload: add_node + start_join driver action
  kCoreBuild,       // workload: build_consistent_network
  kSimDrain,        // workload: ShardDriver::drain
  kCoreRoute,       // workload: one route() call
  kCoreConsistency, // workload: check_consistency
  kChaosRun,        // workload: chaos::run_script
};
inline constexpr std::size_t kNumSpanNames = 8;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same lane's log, -1 = root
  SpanName name = SpanName::kNetSend;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // sum of durations
  std::int64_t self_ns = 0;   // sum of durations minus direct children
  std::int64_t root_ns = 0;   // sum of durations of parentless spans
};
using SpanTable = std::array<SpanTotals, kNumSpanNames>;

// Folds one lane's spans into per-name totals (the self-time arithmetic).
SpanTable reduce_spans(const std::vector<Span>& spans);

class SpanLog {
 public:
  static constexpr std::uint32_t kSlots = kMaxShardLanes + 1;

  // Opens a span on the calling thread's lane slot.
  void open(SpanName name);
  // Closes the most recently opened span on the calling thread's slot.
  void close();

  const std::vector<Span>& spans(std::uint32_t slot) const {
    return lanes_[slot].spans;
  }
  SpanTable reduce(std::uint32_t slot) const {
    return reduce_spans(lanes_[slot].spans);
  }
  SpanTable reduce_all() const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
  };
  std::array<Lane, kSlots> lanes_;
};

// Opens a span for the enclosing scope; a null log records nothing, so the
// same workload code runs traced and untraced.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

// The probe: forwards everything to `inner`, timing sends and the
// overlay's delivery handlers. It also notes, per lane, the CPU clock of
// the thread that runs that lane's deliveries, so the workload can read
// each lane's busy time after a drain without reaching into the driver.
// Its own FaultHooks are honoured like any transport's (Overlay's drop
// filter installs there).
class ProbeTransport final : public Transport {
 public:
  ProbeTransport(Transport& inner, SpanLog& log) : inner_(inner), log_(log) {}

  HostId add_endpoint(Handler handler) override;
  std::uint32_t num_endpoints() const override {
    return inner_.num_endpoints();
  }
  bool send(HostId from, HostId to, Message msg) override;
  EventQueue& queue() override { return inner_.queue(); }

  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }
  std::uint64_t messages_delivered() const override {
    return inner_.messages_delivered();
  }
  std::uint64_t messages_dropped() const override {
    return inner_.messages_dropped() +
           dropped_here_.load(std::memory_order_relaxed);
  }

  // CPU seconds the thread that ran `slot`'s deliveries has used since its
  // first delivery; 0 for a slot that saw none.
  double lane_cpu_s(std::uint32_t slot) const;

  // Deliveries handed to the overlay's handlers, per message type.
  std::array<std::uint64_t, kNumMessageTypes> delivered() const;

 private:
  struct LaneClock {
    bool seen = false;
    clockid_t id{};
    std::int64_t cpu0_ns = 0;
  };
  void note_lane_thread();

  Transport& inner_;
  SpanLog& log_;
  std::array<LaneClock, SpanLog::kSlots> clocks_{};
  std::array<std::array<std::uint64_t, kNumMessageTypes>, SpanLog::kSlots>
      delivered_{};
  std::atomic<std::uint64_t> dropped_here_{0};  // lanes drop concurrently
};

}  // namespace hcube::perfbench
