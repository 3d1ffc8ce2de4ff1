#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>

#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "core/builder.h"
#include "core/consistency.h"
#include "core/overlay.h"
#include "core/routing.h"
#include "core/view.h"
#include "net/reliable_transport.h"
#include "net/sharded_net.h"
#include "probe.h"
#include "topology/latency.h"
#include "util/rng.h"

namespace hcube::perfbench {

std::atomic<std::uint64_t> g_allocs{0};

void Outcome::gate(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Outcome::ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad != 0) failures.push_back(std::to_string(bad) + " " + what);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto below = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(samples.size())));
  return samples[std::min(below, samples.size() - 1)];
}

double tail_quantile_for(std::size_t samples) {
  double best = 0.5;
  for (const double q : {0.9, 0.95, 0.99, 0.999})
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  return best;
}

namespace {

const IdParams kParams{16, 8};

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// Heap bytes handed out by glibc (arena + mmapped blocks); both snapshots
// of a delta carry the same bookkeeping bias.
std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks) +
         static_cast<std::uint64_t>(mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string join_values(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    if (!s.empty()) s += ' ';
    s += fmt("%.3f", x);
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Per-name samples over the reps of a run, reported as medians in the
// order the names were first added.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto [it, fresh] = index_.try_emplace(name, entries_.size());
    if (fresh) entries_.push_back(Entry{name, unit, {}});
    entries_[it->second].values.push_back(value);
  }
  std::vector<Metric> medians() const {
    std::vector<Metric> out;
    for (const Entry& e : entries_)
      out.push_back(Metric{e.name, median(e.values), e.unit});
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

using TypeCounts = std::array<std::uint64_t, kNumMessageTypes>;

std::uint64_t sum(const TypeCounts& c) {
  std::uint64_t s = 0;
  for (const std::uint64_t v : c) s += v;
  return s;
}

// Messages of the join protocol proper (CpRst through RvNghNotiRly), the
// paper's per-join cost (§5.2); leave and repair traffic is excluded.
std::uint64_t join_messages(const TypeCounts& sent) {
  constexpr auto kLast = static_cast<std::size_t>(MessageType::kRvNghNotiRly);
  std::uint64_t s = 0;
  for (std::size_t t = 0; t <= kLast; ++t) s += sent[t];
  return s;
}

std::uint64_t repair_messages(const TypeCounts& sent) {
  std::uint64_t s = 0;
  for (const MessageType t :
       {MessageType::kPing, MessageType::kPong, MessageType::kRepairQuery,
        MessageType::kRepairRly, MessageType::kAnnounce})
    s += sent[static_cast<std::size_t>(t)];
  return s;
}

// The per-layer report. Every workload emits the same names; a value a
// workload cannot observe from outside the library stays 0 (README.md
// lists which).
struct LayerValues {
  double events_per_msg = 0, timer_events_per_msg = 0, epochs = 0;
  // The traced one-lane drain and its split: handler self time, send time,
  // join-start self time and the time below the probe add up to it.
  double drain_s = 0, handle_self_s = 0, send_s = 0, join_start_self_s = 0;
  double below_probe_s = 0;
  // The same inputs traced on two lanes (waves only).
  double k2_drain_s = 0, k2_speedup = 0, k2_barrier_wait_s = 0;
  double k2_lane_busy_s = 0, k2_lane_imbalance = 0, k2_cross_shard_ratio = 0;
  std::array<double, 2> k2_busy{}, k2_handle_self_s{}, k2_send_s{};
  double send_ns_per_msg = 0, deliveries_per_msg = 0, acks_per_msg = 0;
  double allocs_per_msg = 0, retx_per_msg = 0, dup_suppressed = 0;
  double give_ups = 0, faults_injected = 0;
  double bytes_per_msg = 0;
  double build_ns_per_node = 0, handle_ns_per_msg = 0;
  double route_ns_per_lookup = 0, route_hops_mean = 0, consistency_s = 0;
  TypeCounts sent{}, delivered{};
  double chaos_run_s = 0, repair_msg_share = 0, abandoned_joins = 0;

  void add_to(MetricSet& set) const {
    set.add("sim.events_per_msg", events_per_msg, "events/msg");
    set.add("sim.timer_events_per_msg", timer_events_per_msg, "events/msg");
    set.add("sim.epochs", epochs, "count");
    set.add("sim.drain_s", drain_s, "s");
    set.add("core.handle_self_s", handle_self_s, "s");
    set.add("net.send_s", send_s, "s");
    set.add("core.join_start_self_s", join_start_self_s, "s");
    set.add("sim.below_probe_s", below_probe_s, "s");
    set.add("sim.k2.drain_s", k2_drain_s, "s");
    set.add("sim.k2.speedup", k2_speedup, "x");
    set.add("sim.k2.barrier_wait_s", k2_barrier_wait_s, "s");
    set.add("sim.k2.lane_busy_s", k2_lane_busy_s, "s");
    set.add("sim.k2.lane_imbalance", k2_lane_imbalance, "max/mean");
    set.add("sim.k2.cross_shard_ratio", k2_cross_shard_ratio, "ratio");
    for (std::size_t l = 0; l < k2_busy.size(); ++l) {
      const std::string lane = "k2.lane" + std::to_string(l);
      set.add("sim." + lane + ".busy_s", k2_busy[l], "s");
      set.add("core." + lane + ".handle_self_s", k2_handle_self_s[l], "s");
      set.add("net." + lane + ".send_s", k2_send_s[l], "s");
    }
    set.add("net.send_ns_per_msg", send_ns_per_msg, "ns/msg");
    set.add("net.deliveries_per_msg", deliveries_per_msg, "deliveries/msg");
    set.add("net.rel.acks_per_msg", acks_per_msg, "acks/msg");
    set.add("net.allocs_per_msg", allocs_per_msg, "allocs/msg");
    set.add("net.rel.retx_per_msg", retx_per_msg, "retx/msg");
    set.add("net.rel.dup_suppressed", dup_suppressed, "count");
    set.add("net.rel.give_ups", give_ups, "count");
    set.add("net.faults_injected", faults_injected, "count");
    set.add("proto.bytes_per_msg", bytes_per_msg, "B/msg");
    set.add("core.build_ns_per_node", build_ns_per_node, "ns/node");
    set.add("core.handle_ns_per_msg", handle_ns_per_msg, "ns/msg");
    set.add("core.route_ns_per_lookup", route_ns_per_lookup, "ns/lookup");
    set.add("core.route_hops_mean", route_hops_mean, "hops");
    set.add("core.consistency_s", consistency_s, "s");
    for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
      const char* name = type_name(static_cast<MessageType>(t));
      set.add(std::string("core.sent.") + name,
              static_cast<double>(sent[t]), "count");
      set.add(std::string("core.delivered.") + name,
              static_cast<double>(delivered[t]), "count");
    }
    set.add("chaos.run_s", chaos_run_s, "s");
    set.add("chaos.repair_msg_share", repair_msg_share, "ratio");
    set.add("chaos.abandoned_joins", abandoned_joins, "count");
  }
};

double ns_per(const SpanTotals& t, std::int64_t SpanTotals::*field,
              double per) {
  return ratio(static_cast<double>(t.*field), per);
}

const SpanTotals& of(const SpanTable& t, SpanName n) {
  return t[static_cast<std::size_t>(n)];
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---- join waves ----

struct WaveInputs {
  std::vector<NodeId> v;                 // built network
  std::vector<NodeId> w;                 // joiners
  std::vector<std::uint32_t> gateway;    // per joiner, index into v
  std::vector<std::array<std::uint32_t, 2>> pairs;  // lookups, into v ++ w
  std::uint64_t latency_seed = 0;
};

// Seed 1 reproduces bench/bench_scale.cpp's inputs (ID seed 0x5ca1e,
// latency seed 1, gateway stream 7), so its wave can be cross-checked
// against `bench_scale --n 100000 --wave 10000`.
WaveInputs make_wave_inputs(const WaveSpec& spec, std::uint64_t seed) {
  WaveInputs in;
  UniqueIdGenerator gen(kParams, 0x5ca1eULL + seed - 1);
  in.latency_seed = seed;
  Rng gateways(6 + seed);
  std::uint64_t sm = seed;
  Rng rng(splitmix64_next(sm));
  in.v.reserve(spec.n);
  in.w.reserve(spec.m);
  for (std::size_t i = 0; i < spec.n; ++i) in.v.push_back(gen.next());
  for (std::size_t i = 0; i < spec.m; ++i) in.w.push_back(gen.next());
  for (std::size_t i = 0; i < spec.m; ++i)
    in.gateway.push_back(
        static_cast<std::uint32_t>(gateways.next_below(spec.n)));
  const std::uint64_t all = spec.n + spec.m;
  in.pairs.reserve(spec.lookups);
  for (std::size_t i = 0; i < spec.lookups; ++i)
    in.pairs.push_back({static_cast<std::uint32_t>(rng.next_below(all)),
                        static_cast<std::uint32_t>(rng.next_below(all))});
  return in;
}

struct WaveRep {
  double setup_s = 0, wall_s = 0, lookup_s = 0;
  std::uint64_t heap_bytes = 0;
  Overlay::Totals totals;
  std::uint64_t events = 0, actions = 0, deliveries = 0;
  std::uint64_t epochs = 0, cross_shard = 0, allocs = 0;
  ReliabilityStats rel;
  std::vector<double> join_ms;
  std::size_t not_in_system = 0, lookup_fail = 0;
  double hops_sum = 0;
  std::optional<bool> consistent;
  std::uint64_t digest = 0;
  // Traced reps only.
  SpanTable spans{};
  std::array<SpanTable, 2> lane_spans{};
  std::array<double, 2> lane_cpu{};
  TypeCounts delivered{};
};

void fold_tables(const Overlay& overlay, Fnv& d) {
  const std::uint32_t levels = kParams.num_digits, digits = kParams.base;
  for (const auto& node : overlay.nodes()) {
    d.add(node->id().hash());
    d.add(static_cast<std::uint64_t>(node->status()));
    const NeighborTable& t = node->table();
    for (std::uint32_t l = 0; l < levels; ++l)
      for (std::uint32_t j = 0; j < digits; ++j) {
        const NodeId* p = t.neighbor(l, j);
        if (p == nullptr) {
          d.add(0);
          continue;
        }
        d.add(p->hash());
        d.add(static_cast<std::uint64_t>(t.state(l, j)));
      }
  }
}

// One rep: build, wave, then (when `lookups`) the lookup phase and (when
// `check`) the consistency audit. A non-null `log` traces it.
WaveRep run_wave_rep(const WaveSpec& spec, const WaveInputs& in,
                     std::uint32_t lanes, SpanLog* log, bool lookups,
                     bool check) {
  WaveRep rep;
  const std::size_t n = in.v.size(), m = in.w.size();

  const std::uint64_t heap0 = heap_in_use();
  const std::int64_t t_setup = now_ns();
  SyntheticLatency latency(static_cast<std::uint32_t>(n + m), 5.0, 120.0,
                           in.latency_seed);
  ShardedNet::Params np;
  np.lanes = lanes;
  np.rel.rto_ms = 500.0;
  ShardedNet net(np, latency);
  std::optional<ProbeTransport> probe;
  if (log != nullptr) probe.emplace(net.transport(), *log);
  Overlay overlay(kParams, ProtocolOptions{},
                  probe ? *probe : net.transport());
  {
    SpanScope span(log, SpanName::kCoreBuild);
    // finish_install stamps t_begin via env.now(); every lane is at t = 0.
    LaneScope scope(&net.lane_queue(0), 0);
    build_consistent_network(overlay, in.v);
  }
  rep.setup_s = seconds_since(t_setup);
  const std::uint64_t heap1 = heap_in_use();
  rep.heap_bytes = heap1 > heap0 ? heap1 - heap0 : 0;

  if (spec.stall_joiner < m) {
    overlay.set_drop_filter(
        [id = in.w[spec.stall_joiner]](const NodeId& from, const NodeId&,
                                       const MessageBody&) {
          return from == id;
        });
  }

  // The wave: one driver action per joiner at a fixed instant, so the
  // merged event history is the same for every lane count.
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId id = in.w[i];
    const NodeId gw = in.v[in.gateway[i]];
    net.driver().schedule_action(
        0.05 * static_cast<double>(i + 1),
        [&overlay, &net, log, id, gw] {
          Node& joiner = overlay.add_node(id);
          const std::uint32_t lane = net.lane_of_host(overlay.host_of(id));
          LaneScope scope(&net.lane_queue(lane), lane);
          SpanScope span(log, SpanName::kCoreJoinStart);
          joiner.start_join(gw);
        });
  }
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t t_drain = now_ns();
  {
    SpanScope span(log, SpanName::kSimDrain);
    net.driver().drain();
  }
  rep.wall_s = seconds_since(t_drain);
  rep.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  if (probe) {
    for (std::uint32_t l = 0; l < lanes && l < rep.lane_cpu.size(); ++l) {
      rep.lane_cpu[l] = probe->lane_cpu_s(l);
      rep.lane_spans[l] = log->reduce(l);
    }
    rep.delivered = probe->delivered();
  }

  rep.totals = overlay.totals();
  rep.events = net.driver().events_processed();
  rep.actions = net.driver().actions_executed();
  for (std::uint32_t l = 0; l < net.num_lanes(); ++l)
    rep.deliveries += net.lane_transport(l).messages_delivered();
  rep.epochs = net.driver().epochs_run();
  rep.cross_shard = net.cross_shard_messages();
  rep.rel = net.rel_stats();
  for (const NodeId& id : in.w) {
    const Node* node = overlay.find(id);
    if (node != nullptr && node->is_s_node()) {
      rep.join_ms.push_back(node->join_stats().t_end -
                            node->join_stats().t_begin);
    } else {
      ++rep.not_in_system;
    }
  }

  const NetworkView view = view_of(overlay);
  const auto id_at = [&in, n](std::uint32_t i) -> const NodeId& {
    return i < n ? in.v[i] : in.w[i - n];
  };
  const std::int64_t t_lookup = now_ns();
  for (std::size_t i = 0; lookups && i < in.pairs.size(); ++i) {
    const auto& [a, b] = in.pairs[i];
    RouteResult r;
    {
      SpanScope span(log, SpanName::kCoreRoute);
      r = route(view, id_at(a), id_at(b));
    }
    if (!r.success || r.hops() > kParams.num_digits) ++rep.lookup_fail;
    rep.hops_sum += static_cast<double>(r.hops());
  }
  rep.lookup_s = seconds_since(t_lookup);

  if (check) {
    SpanScope span(log, SpanName::kCoreConsistency);
    rep.consistent = check_consistency(view).consistent();
  }
  if (log != nullptr) rep.spans = log->reduce_all();

  Fnv d;
  d.add(n);
  d.add(m);
  d.add(rep.events);
  d.add(rep.totals.messages);
  d.add(rep.totals.bytes);
  for (const std::uint64_t s : rep.totals.sent) d.add(s);
  d.add(static_cast<std::uint64_t>(
      std::llround(net.driver().last_event_time() * 1000.0)));
  d.add(rep.not_in_system);
  d.add(net.rel_in_flight());
  for (const double ms : rep.join_ms)
    d.add(static_cast<std::uint64_t>(std::llround(ms * 1000.0)));
  fold_tables(overlay, d);
  rep.digest = d.h;
  return rep;
}

// Correctness gates every wave rep passes through.
void gate_wave(Outcome& out, const WaveSpec& spec, const WaveRep& r,
               std::optional<std::uint64_t>& first_digest) {
  out.ops(spec.m, r.not_in_system, "joiner(s) not in the system");
  out.ops(spec.lookups, r.lookup_fail,
          "lookup(s) failed or took more than d hops");
  if (r.consistent)
    out.gate(*r.consistent, "check_consistency found violations");
  if (!first_digest) {
    first_digest = r.digest;
  } else {
    out.gate(r.digest == *first_digest,
             "rep digest " + hex(r.digest) + " differs from the first rep's " +
                 hex(*first_digest));
  }
}

void add_wave_e2e(MetricSet& set, const WaveSpec& spec, const WaveRep& r) {
  const double msgs = static_cast<double>(r.totals.messages);
  set.add("setup_s", r.setup_s, "s");
  set.add("wall_s", r.wall_s, "s");
  set.add("msgs_per_s", ratio(msgs, r.wall_s), "1/s");
  set.add("lookup_per_s",
          ratio(static_cast<double>(spec.lookups), r.lookup_s), "1/s");
  set.add("join_sim_p50_ms", quantile(r.join_ms, 0.5), "ms");
  set.add("join_sim_tail_ms",
          quantile(r.join_ms, tail_quantile_for(r.join_ms.size())), "ms");
  set.add("msgs_per_join",
          ratio(static_cast<double>(join_messages(r.totals.sent)),
                static_cast<double>(spec.m)),
          "msgs");
  set.add("bytes_per_node",
          ratio(static_cast<double>(r.heap_bytes),
                static_cast<double>(spec.n)),
          "B");
}

// Per-layer values of one traced rep `t`. `plain` is the untraced rep it
// was paired with (allocations are counted there, free of span-log
// growth) and `k2` the same inputs traced on two lanes.
LayerValues wave_layers(const WaveSpec& spec, const WaveRep& t,
                        const WaveRep& plain, const WaveRep& k2) {
  LayerValues v;
  const double msgs = static_cast<double>(t.totals.messages);
  v.events_per_msg = ratio(static_cast<double>(t.events), msgs);
  v.timer_events_per_msg = ratio(
      static_cast<double>(t.events - t.deliveries - t.actions), msgs);
  v.epochs = static_cast<double>(t.epochs);

  // One inline lane: every drain second is inside a root probe span or
  // below them (queue pops, delivery, the ARQ receive side).
  const SpanTable& lane = t.lane_spans[0];
  const SpanTotals& handle = of(lane, SpanName::kCoreHandle);
  const SpanTotals& send = of(lane, SpanName::kNetSend);
  const SpanTotals& start = of(lane, SpanName::kCoreJoinStart);
  v.drain_s = t.wall_s;
  v.handle_self_s = secs(handle.self_ns);
  v.send_s = secs(send.total_ns);
  v.join_start_self_s = secs(start.self_ns);
  v.below_probe_s =
      t.wall_s - secs(handle.root_ns + send.root_ns + start.root_ns);

  // Two lanes: a lane is busy while its thread runs; the drain time no
  // lane accounts for is barrier wait (the driver's commit included).
  double max_busy = 0.0;
  for (std::size_t l = 0; l < k2.lane_cpu.size(); ++l) {
    v.k2_busy[l] = k2.lane_cpu[l];
    v.k2_handle_self_s[l] =
        secs(of(k2.lane_spans[l], SpanName::kCoreHandle).self_ns);
    v.k2_send_s[l] = secs(of(k2.lane_spans[l], SpanName::kNetSend).total_ns);
    v.k2_lane_busy_s += k2.lane_cpu[l];
    max_busy = std::max(max_busy, k2.lane_cpu[l]);
  }
  v.k2_drain_s = k2.wall_s;
  v.k2_speedup = ratio(t.wall_s, k2.wall_s);
  v.k2_barrier_wait_s = k2.wall_s - max_busy;
  v.k2_lane_imbalance = ratio(max_busy, v.k2_lane_busy_s / 2.0);
  v.k2_cross_shard_ratio = ratio(static_cast<double>(k2.cross_shard),
                                 static_cast<double>(k2.deliveries));

  v.send_ns_per_msg =
      ns_per(of(t.spans, SpanName::kNetSend), &SpanTotals::total_ns, msgs);
  v.deliveries_per_msg = ratio(static_cast<double>(t.deliveries), msgs);
  v.acks_per_msg = ratio(static_cast<double>(t.rel.acks_sent), msgs);
  v.allocs_per_msg = ratio(static_cast<double>(plain.allocs),
                           static_cast<double>(plain.totals.messages));
  v.retx_per_msg = ratio(static_cast<double>(t.rel.retransmits), msgs);
  v.dup_suppressed = static_cast<double>(t.rel.dup_suppressed);
  v.give_ups = static_cast<double>(t.rel.give_ups);
  v.bytes_per_msg = ratio(static_cast<double>(t.totals.bytes), msgs);
  v.build_ns_per_node = ns_per(of(t.spans, SpanName::kCoreBuild),
                               &SpanTotals::total_ns,
                               static_cast<double>(spec.n));
  v.handle_ns_per_msg =
      ns_per(of(t.spans, SpanName::kCoreHandle), &SpanTotals::self_ns, msgs);
  const SpanTotals& rt = of(t.spans, SpanName::kCoreRoute);
  v.route_ns_per_lookup =
      ns_per(rt, &SpanTotals::total_ns, static_cast<double>(rt.count));
  v.route_hops_mean = ratio(t.hops_sum, static_cast<double>(spec.lookups));
  v.consistency_s =
      secs(of(t.spans, SpanName::kCoreConsistency).total_ns);
  for (std::size_t i = 0; i < kNumMessageTypes; ++i)
    v.sent[i] = t.totals.sent[i];
  v.delivered = t.delivered;
  v.repair_msg_share =
      ratio(static_cast<double>(repair_messages(v.sent)), msgs);
  return v;
}

// ---- churn ----

struct ChurnInputs {
  chaos::ChurnScript script;
  std::vector<NodeId> seed_ids;  // the network run_script builds first
  std::vector<std::array<std::uint32_t, 2>> pairs;  // lookups, into seed_ids
};

ChurnInputs make_churn_inputs(const ChurnSpec& spec, std::uint64_t seed) {
  chaos::EquilibriumSpec eq;
  eq.rate_join = 8.0;
  eq.rate_leave = 4.0;
  eq.steady_windows = spec.steady_windows;
  eq.config = chaos::find_profile("equilibrium")->config;
  eq.config.n_seed = spec.n_seed;
  ChurnInputs in;
  in.script = chaos::sample_equilibrium_script(seed, eq);
  const chaos::ChaosConfig& cfg = in.script.config;
  // Same generator and order as the engine's seed_world.
  UniqueIdGenerator gen(cfg.params, cfg.id_seed);
  for (std::uint32_t i = 0; i < cfg.n_seed; ++i)
    in.seed_ids.push_back(gen.next());
  std::uint64_t sm = seed ^ 0x100c0b5ULL;
  Rng rng(splitmix64_next(sm));
  const auto pick = [&rng, &cfg] {
    return static_cast<std::uint32_t>(rng.next_below(cfg.n_seed));
  };
  for (std::size_t i = 0; i < spec.lookups; ++i)
    in.pairs.push_back({pick(), pick()});
  return in;
}

// The set-up run_script performs before its first step (latency model,
// overlay, seed network), rebuilt here where it can be timed, followed by
// lookups over the seed network.
struct ChurnSetup {
  double setup_s = 0, lookup_s = 0;
  std::uint64_t heap_bytes = 0;
  std::size_t lookup_fail = 0;
  double hops_sum = 0;
};

ChurnSetup run_churn_setup(const ChurnInputs& in, SpanLog* log,
                           bool lookups) {
  ChurnSetup s;
  const chaos::ChaosConfig& cfg = in.script.config;
  const std::uint64_t heap0 = heap_in_use();
  const std::int64_t t0 = now_ns();
  PlanetLatency latency(cfg.n_seed + in.script.num_join_ids(),
                        cfg.latency_seed);
  EventQueue queue;
  Overlay overlay(cfg.params, ProtocolOptions{}, queue, latency);
  {
    SpanScope span(log, SpanName::kCoreBuild);
    build_consistent_network(overlay, in.seed_ids);
  }
  s.setup_s = seconds_since(t0);
  const std::uint64_t heap1 = heap_in_use();
  s.heap_bytes = heap1 > heap0 ? heap1 - heap0 : 0;
  if (!lookups) return s;
  const NetworkView view = view_of(overlay);
  const std::int64_t t1 = now_ns();
  for (const auto& [a, b] : in.pairs) {
    RouteResult r;
    {
      SpanScope span(log, SpanName::kCoreRoute);
      r = route(view, in.seed_ids[a], in.seed_ids[b]);
    }
    if (!r.success || r.hops() > cfg.params.num_digits) ++s.lookup_fail;
    s.hops_sum += static_cast<double>(r.hops());
  }
  s.lookup_s = seconds_since(t1);
  return s;
}

struct ChurnRep {
  chaos::ChaosResult result;
  double wall_s = 0;
  std::uint64_t allocs = 0;
  std::vector<double> join_ms;  // per completed join, first attempt to S
  std::size_t joins_started = 0;
  TypeCounts sent{};  // per type, from Overlay::on_message
  // Traced reps only: counts from the delivery hook.
  TypeCounts delivered{};
  ReliabilityStats rel;
};

ChurnRep run_churn_rep(const ChurnInputs& in, SpanLog* log) {
  ChurnRep rep;
  struct JoinClock {
    SimTime begin = 0.0;
    bool done = false;
  };
  std::unordered_map<std::uint64_t, JoinClock> joins;
  const bool traced = log != nullptr;
  const auto observe = [&rep, &joins, traced](Overlay& ov) {
    ov.on_status_change = [&ov, &rep, &joins, prev = ov.on_status_change](
                              const NodeId& node, NodeStatus from,
                              NodeStatus to, std::uint32_t gen) {
      if (prev) prev(node, from, to, gen);
      if (to == NodeStatus::kCopying) {
        joins.try_emplace(node.ref(), JoinClock{ov.now(), false});
      } else if (to == NodeStatus::kInSystem) {
        const auto it = joins.find(node.ref());
        if (it != joins.end() && !it->second.done) {
          it->second.done = true;
          rep.join_ms.push_back(ov.now() - it->second.begin);
        }
      }
    };
    ov.on_message = [&rep, prev = ov.on_message](const NodeId& from,
                                                 const NodeId& to,
                                                 const MessageBody& body) {
      if (prev) prev(from, to, body);
      ++rep.sent[static_cast<std::size_t>(type_of(body))];
    };
    if (!traced) return;
    // The single-queue stack is internal to the engine; its ARQ counters
    // are read at each delivery, the last moment they are reachable.
    const auto* rel = dynamic_cast<const ReliableTransport*>(&ov.transport());
    ov.delivery_interceptor = [&rep, rel, prev = ov.delivery_interceptor](
                                  Node& node, HostId from, const Message& msg) {
      if (prev && prev(node, from, msg)) return true;
      ++rep.delivered[static_cast<std::size_t>(type_of(msg.body))];
      if (rel != nullptr) rep.rel = rel->rstats();
      return false;
    };
  };
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(log, SpanName::kChaosRun);
    rep.result = chaos::run_script(in.script, observe);
  }
  rep.wall_s = seconds_since(t0);
  rep.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  rep.joins_started = joins.size();
  return rep;
}

// Per-layer values of one traced churn rep: counts from the overlay hooks
// and the engine's result, build and route time from the set-up spans.
// `plain` is the untraced rep it was paired with (allocations).
LayerValues churn_layers(const ChurnSpec& spec, const SpanTable& spans,
                         const ChurnSetup& setup, const ChurnRep& t,
                         const ChurnRep& plain) {
  LayerValues v;
  const chaos::ChaosResult& res = t.result;
  const double msgs = static_cast<double>(res.messages);
  v.events_per_msg = ratio(static_cast<double>(res.events), msgs);
  v.deliveries_per_msg =
      ratio(static_cast<double>(sum(t.delivered) + t.rel.dup_suppressed +
                                t.rel.acks_sent),
            msgs);
  v.acks_per_msg = ratio(static_cast<double>(t.rel.acks_sent), msgs);
  v.allocs_per_msg = ratio(static_cast<double>(plain.allocs),
                           static_cast<double>(plain.result.messages));
  v.retx_per_msg = ratio(static_cast<double>(res.retransmits), msgs);
  v.dup_suppressed = static_cast<double>(t.rel.dup_suppressed);
  v.give_ups = static_cast<double>(res.give_ups);
  v.faults_injected = static_cast<double>(res.faults_injected);
  v.bytes_per_msg = ratio(static_cast<double>(res.bytes), msgs);
  v.build_ns_per_node =
      ns_per(of(spans, SpanName::kCoreBuild), &SpanTotals::total_ns,
             static_cast<double>(spec.n_seed));
  const SpanTotals& rt = of(spans, SpanName::kCoreRoute);
  v.route_ns_per_lookup =
      ns_per(rt, &SpanTotals::total_ns, static_cast<double>(rt.count));
  v.route_hops_mean =
      ratio(setup.hops_sum, static_cast<double>(spec.lookups));
  v.sent = t.sent;
  v.delivered = t.delivered;
  v.chaos_run_s =
      static_cast<double>(of(spans, SpanName::kChaosRun).total_ns) * 1e-9;
  v.repair_msg_share =
      ratio(static_cast<double>(repair_messages(t.sent)), msgs);
  v.abandoned_joins = static_cast<double>(res.abandoned_joins);
  return v;
}

}  // namespace

std::uint64_t wave_digest(const WaveSpec& spec, std::uint64_t seed,
                          std::uint32_t lanes, bool traced) {
  const WaveInputs in = make_wave_inputs(spec, seed);
  SpanLog log;
  return run_wave_rep(spec, in, lanes, traced ? &log : nullptr, true, false)
      .digest;
}

Outcome run_wave_workload(const WaveSpec& spec, const RunOptions& opt) {
  Outcome out;
  const std::int64_t t_run = now_ns();
  const WaveInputs in = make_wave_inputs(spec, opt.seed);

  MetricSet e2e, layers;
  std::vector<double> plain_drain, traced_drain;
  std::optional<std::uint64_t> first_digest;
  WaveRep last;
  double measured = 0.0, last_rep_s = 0.0;
  for (int i = 0; opt.more_reps(i, spec.min_reps, measured,
                                seconds_since(t_run), last_rep_s);
       ++i) {
    const std::int64_t t_rep = now_ns();
    // The consistency gate runs once per run, on the traced rep when the
    // run is traced (so its time lands in core.consistency_s).
    WaveRep r = run_wave_rep(spec, in, 1, nullptr, true, i == 0 && !opt.trace);
    gate_wave(out, spec, r, first_digest);
    add_wave_e2e(e2e, spec, r);
    measured += r.setup_s + r.wall_s + r.lookup_s;
    plain_drain.push_back(r.wall_s);
    if (opt.trace) {
      SpanLog log, log_k2;
      const WaveRep t = run_wave_rep(spec, in, 1, &log, true, i == 0);
      gate_wave(out, spec, t, first_digest);
      // Two lanes run the same inputs through the epoch barrier and the
      // cross-shard mailboxes; the outcome must not change.
      const WaveRep k2 = run_wave_rep(spec, in, 2, &log_k2, false, false);
      out.gate(k2.digest == t.digest, "K=2 digest " + hex(k2.digest) +
                                          " differs from K=1 digest " +
                                          hex(t.digest));
      const LayerValues v = wave_layers(spec, t, r, k2);
      v.add_to(layers);
      traced_drain.push_back(t.wall_s);
      out.notes.push_back(
          "traced drain " + fmt("%.3f", v.drain_s) + " s = handle self " +
          fmt("%.3f", v.handle_self_s) + " + send " + fmt("%.3f", v.send_s) +
          " + join_start self " + fmt("%.3f", v.join_start_self_s) +
          " + below probe " + fmt("%.3f", v.below_probe_s) +
          "; untraced drain " + fmt("%.3f", r.wall_s) + " s; K=2 drain " +
          fmt("%.3f", v.k2_drain_s) + " s");
      measured += t.setup_s + t.wall_s + t.lookup_s + k2.setup_s + k2.wall_s;
    }
    last = std::move(r);
    last_rep_s = seconds_since(t_rep);
  }
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    layers.add("trace.overhead_ratio",
               ratio(median(traced_drain), median(plain_drain)) - 1.0,
               "ratio");
  }
  out.metrics = opt.trace ? layers.medians() : e2e.medians();

  const double msgs = static_cast<double>(last.totals.messages);
  const double tail_q = tail_quantile_for(last.join_ms.size());
  out.notes.push_back(
      "reps " + std::to_string(plain_drain.size()) + ", digest " +
      hex(last.digest) + ", messages " + std::to_string(last.totals.messages) +
      ", deliveries/msg " +
      fmt("%.4f", ratio(static_cast<double>(last.deliveries), msgs)) +
      ", retransmits " + std::to_string(last.rel.retransmits));
  out.notes.push_back("drain s per rep: " + join_values(plain_drain));
  out.notes.push_back(
      "join_sim_tail_ms is p" + fmt("%g", tail_q * 100.0) + " (" +
      fmt("%.2f", quantile(last.join_ms, tail_q)) + " ms over " +
      std::to_string(last.join_ms.size()) + " joins)");
  return out;
}

Outcome run_churn_workload(const ChurnSpec& spec, const RunOptions& opt) {
  Outcome out;
  const std::int64_t t_run = now_ns();
  MetricSet e2e, layers;
  std::vector<double> plain_run, traced_run;
  ChurnRep first;
  double measured = 0.0, last_rep_s = 0.0;
  const auto gate_churn = [&](const ChurnRep& r, const ChurnSetup& s) {
    out.gate(r.result.ok, "chaos oracle: " + r.result.first_failure());
    out.ops(r.joins_started, r.joins_started - r.join_ms.size(),
            "join(s) never reached the system");
    out.ops(spec.lookups, s.lookup_fail,
            "seed-network lookup(s) failed or took more than d hops");
  };
  // One churn script holds only a few hundred joins, so a single script's
  // tail latency and join cost are a small sample. Each rep runs its own
  // script, the first from the run seed itself and the rest drawn from it.
  // Join latencies and join messages are pooled over the reps; timings are
  // medians over them.
  std::vector<double> pooled_join_ms;
  std::uint64_t join_msgs = 0, joins = 0;
  std::size_t joins_per_script = 0;
  std::uint64_t sm = opt.seed;
  for (int i = 0; opt.more_reps(i, spec.min_reps, measured,
                                seconds_since(t_run), last_rep_s);
       ++i) {
    const std::int64_t t_rep = now_ns();
    const ChurnInputs in =
        make_churn_inputs(spec, i == 0 ? opt.seed : splitmix64_next(sm));
    const double n_seed = static_cast<double>(in.script.config.n_seed);
    // The seed-network build takes milliseconds; time five per rep.
    for (int b = 1; b < 5; ++b)
      e2e.add("setup_s", run_churn_setup(in, nullptr, false).setup_s, "s");
    const ChurnSetup s = run_churn_setup(in, nullptr, true);
    ChurnRep r = run_churn_rep(in, nullptr);
    gate_churn(r, s);
    const double msgs = static_cast<double>(r.result.messages);
    e2e.add("setup_s", s.setup_s, "s");
    e2e.add("wall_s", r.wall_s, "s");
    e2e.add("msgs_per_s", ratio(msgs, r.wall_s), "1/s");
    e2e.add("lookup_per_s",
            ratio(static_cast<double>(spec.lookups), s.lookup_s), "1/s");
    e2e.add("bytes_per_node", ratio(static_cast<double>(s.heap_bytes), n_seed),
            "B");
    pooled_join_ms.insert(pooled_join_ms.end(), r.join_ms.begin(),
                          r.join_ms.end());
    join_msgs += join_messages(r.sent);
    joins += r.joins_started;
    if (i == 0) joins_per_script = r.joins_started;
    measured += s.setup_s + s.lookup_s + r.wall_s;
    plain_run.push_back(r.wall_s);
    if (opt.trace) {
      SpanLog log;
      const ChurnSetup ts = run_churn_setup(in, &log, true);
      const ChurnRep t = run_churn_rep(in, &log);
      gate_churn(t, ts);
      out.gate(t.result.digest == r.result.digest,
               "traced run digest " + hex(t.result.digest) +
                   " differs from the untraced " + hex(r.result.digest));
      const LayerValues v = churn_layers(spec, log.reduce_all(), ts, t, r);
      v.add_to(layers);
      traced_run.push_back(t.wall_s);
      measured += ts.setup_s + ts.lookup_s + t.wall_s;
    }
    if (i == 0) first = std::move(r);
    last_rep_s = seconds_since(t_rep);
  }
  // The tail is the highest percentile one script's joins support (see
  // tail_quantile_for), taken over the pooled samples.
  const double tail_q = tail_quantile_for(joins_per_script);
  e2e.add("join_sim_p50_ms", quantile(pooled_join_ms, 0.5), "ms");
  e2e.add("join_sim_tail_ms", quantile(pooled_join_ms, tail_q), "ms");
  e2e.add("msgs_per_join",
          ratio(static_cast<double>(join_msgs), static_cast<double>(joins)),
          "msgs");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    layers.add("trace.overhead_ratio",
               ratio(median(traced_run), median(plain_run)) - 1.0, "ratio");
  }
  out.metrics = opt.trace ? layers.medians() : e2e.medians();

  const chaos::ChaosResult& res = first.result;
  out.notes.push_back(
      "reps " + std::to_string(plain_run.size()) + "; first rep: digest " +
      hex(res.digest) + ", messages " + std::to_string(res.messages) +
      ", retransmits " + std::to_string(res.retransmits) + " (" +
      fmt("%.4f", ratio(static_cast<double>(res.retransmits),
                        static_cast<double>(res.messages))) +
      "/msg), joins " + std::to_string(first.joins_started) + ", abandoned " +
      std::to_string(res.abandoned_joins));
  out.notes.push_back("run_script s per rep: " + join_values(plain_run));
  out.notes.push_back("join_sim_tail_ms is p" + fmt("%g", tail_q * 100.0) +
                      " over " + std::to_string(pooled_join_ms.size()) +
                      " joins from " + std::to_string(plain_run.size()) +
                      " scripts");
  return out;
}

}  // namespace hcube::perfbench
