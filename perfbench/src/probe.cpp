#include "probe.h"

#include <pthread.h>

#include <utility>

#include "util/check.h"

namespace hcube::perfbench {

namespace {

std::int64_t cpu_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

SpanTable reduce_spans(const std::vector<Span>& spans) {
  // Children always follow their parent in the log, so one pass that
  // charges each span's duration to its parent's child total suffices.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  SpanTable table{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = table[static_cast<std::size_t>(s.name)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    if (s.parent < 0) t.root_ns += dur;
  }
  return table;
}

void SpanLog::open(SpanName name) {
  Lane& lane = lanes_[lane_scratch_slot()];
  const std::int32_t parent = lane.open.empty() ? -1 : lane.open.back();
  lane.open.push_back(static_cast<std::int32_t>(lane.spans.size()));
  lane.spans.push_back(Span{now_ns(), 0, parent, name});
}

void SpanLog::close() {
  Lane& lane = lanes_[lane_scratch_slot()];
  HCUBE_CHECK_MSG(!lane.open.empty(), "close() without an open span");
  lane.spans[lane.open.back()].end_ns = now_ns();
  lane.open.pop_back();
}

SpanTable SpanLog::reduce_all() const {
  SpanTable sum{};
  for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
    const SpanTable t = reduce(slot);
    for (std::size_t i = 0; i < kNumSpanNames; ++i) {
      sum[i].count += t[i].count;
      sum[i].total_ns += t[i].total_ns;
      sum[i].self_ns += t[i].self_ns;
      sum[i].root_ns += t[i].root_ns;
    }
  }
  return sum;
}

void ProbeTransport::note_lane_thread() {
  LaneClock& c = clocks_[lane_scratch_slot()];
  if (c.seen) return;
  if (pthread_getcpuclockid(pthread_self(), &c.id) != 0) return;
  c.cpu0_ns = cpu_ns(c.id);
  c.seen = true;
}

double ProbeTransport::lane_cpu_s(std::uint32_t slot) const {
  const LaneClock& c = clocks_[slot];
  if (!c.seen) return 0.0;
  return static_cast<double>(cpu_ns(c.id) - c.cpu0_ns) * 1e-9;
}

std::array<std::uint64_t, kNumMessageTypes> ProbeTransport::delivered() const {
  std::array<std::uint64_t, kNumMessageTypes> sum{};
  for (const auto& lane : delivered_)
    for (std::size_t t = 0; t < sum.size(); ++t) sum[t] += lane[t];
  return sum;
}

HostId ProbeTransport::add_endpoint(Handler handler) {
  return inner_.add_endpoint(
      [this, h = std::move(handler)](HostId from, const Message& msg) {
        note_lane_thread();
        ++delivered_[lane_scratch_slot()]
                    [static_cast<std::size_t>(type_of(msg.body))];
        SpanScope span(&log_, SpanName::kCoreHandle);
        h(from, msg);
      });
}

bool ProbeTransport::send(HostId from, HostId to, Message msg) {
  if (admit(from, to, msg).action == FaultAction::kDrop) {
    dropped_here_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SpanScope span(&log_, SpanName::kNetSend);
  return inner_.send(from, to, std::move(msg));
}

}  // namespace hcube::perfbench
