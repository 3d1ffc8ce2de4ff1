// The simulation stack: per-lane transports + reliable decorators, with
// cross-shard deliveries routed through SPSC mailboxes and committed at the
// epoch barrier. K = 1 is the single-queue stack itself.
//
// Host ids stay GLOBAL everywhere in the API — the reliable layer's acks
// must address the remote's global id no matter which lane it lives on.
// Each lane owns dense *local* storage for its own endpoints, found via the
// net-owned local-index column (see the lane modes of PooledTransport and
// ReliableTransport).
//
// Topology (K lanes, hash-assigned by shard_of):
//
//   Overlay -> ShardedTransport (K > 1 only: decorator-level hooks, routing)
//            -> ReliableTransport[lane(from)]   (acks/retransmit, lane state)
//             -> SimTransport[lane(from)]       (latency, faults, slab)
//                 |-- same-lane dest: schedule on the lane's own EventQueue
//                 '-- cross-lane dest: the remote-dispatch hook pushes
//                     RemoteDelivery{deliver_at, ...} into
//                     mailbox[lane(from)][lane(to)]; the driver commits it
//                     into lane(to)'s queue at the next barrier.
//
// At K = 1 transport() is lane 0's ReliableTransport and lane 0 runs in
// dense mode: no facade, routing columns or mailboxes, so hooks and
// observers see the plain EventQueue + SimTransport + ReliableTransport
// stack. Correctness of the deferred commit rests on the epoch invariant:
// epoch length = the latency model's min cross-shard latency, so
// deliver_at = send_time + latency is never earlier than the barrier that
// commits it (sim/shard_driver.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/reliable_transport.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "sim/mailbox.h"
#include "sim/shard_driver.h"
#include "topology/latency.h"

namespace hcube {

class ShardedNet;

// A cross-shard delivery parked in a mailbox until the next barrier. The
// delivery time is computed at send time (the sender's clock + modelled
// latency + injected extra delay), so committing late never distorts it.
struct RemoteDelivery {
  SimTime deliver_at = 0.0;
  HostId from = kNoHost;
  HostId to = kNoHost;
  Message msg;
};

// The Transport the Overlay sees when K > 1. Registration assigns global
// ids and lane homes; send routes to the owning lane's reliable decorator;
// decorator-level fault hooks (the Overlay's drop filter) fire here — a
// drop is "never sent", exactly as on a single ReliableTransport.
class ShardedTransport final : public Transport {
 public:
  explicit ShardedTransport(ShardedNet& net) : net_(net) {}

  HostId add_endpoint(Handler handler) override;
  std::uint32_t num_endpoints() const override;

  bool send(HostId from, HostId to, Message msg) override;

  // The queue of the lane the calling thread is executing for. Only valid
  // inside a LaneScope (worker epoch or driver action); protocol code
  // reaches its own lane's clock and timers through this.
  EventQueue& queue() override;

  std::uint64_t messages_sent() const override;
  std::uint64_t messages_delivered() const override;
  std::uint64_t messages_dropped() const override;

 private:
  ShardedNet& net_;
  std::uint64_t dropped_here_ = 0;
};

// Owns the lanes: queues, transports, reliable decorators, mailboxes, the
// epoch driver, and (K > 1) the facade. The chaos runner and the benches
// build on this.
class ShardedNet {
 public:
  struct Params {
    std::uint32_t lanes = 2;
    ReliabilityConfig rel;
  };

  ShardedNet(const Params& params, LatencyModel& latency);

  // Lane 0's reliable decorator at K = 1, the routing facade otherwise.
  Transport& transport() {
    if (facade_) return *facade_;
    return *rels_[0];
  }
  ShardDriver& driver() { return *driver_; }

  std::uint32_t num_lanes() const {
    return static_cast<std::uint32_t>(queues_.size());
  }
  // Epoch length: the latency model's min_latency_ms().
  double epoch_ms() const { return epoch_ms_; }

  // Lane assignment of a (future) global host id: a seeded hash, so lane
  // populations stay balanced for any join order.
  std::uint32_t shard_of(HostId h) const;
  // Lane of an already-registered endpoint.
  std::uint32_t lane_of_host(HostId h) const {
    return facade_ ? lane_of_[h] : 0;
  }

  EventQueue& lane_queue(std::uint32_t lane) { return *queues_[lane]; }
  SimTransport& lane_transport(std::uint32_t lane) {
    return *transports_[lane];
  }
  ReliableTransport& lane_rel(std::uint32_t lane) { return *rels_[lane]; }

  // Drains every mailbox in canonical order — for each destination lane
  // (ascending), sources ascending, FIFO within a pair — scheduling the
  // entries into the destination queues. The driver's commit callback;
  // runs on the driver thread with all workers parked.
  void commit_mailboxes();

  // Aggregates over lanes (deterministic: each addend is deterministic).
  ReliabilityStats rel_stats() const;
  std::uint64_t rel_in_flight() const;
  std::uint64_t cross_shard_messages() const;

 private:
  friend class ShardedTransport;

  HostId register_endpoint(Transport::Handler handler);
  // Lane `lane`'s remote-dispatch hook: takes copies bound for other lanes.
  bool post_remote(std::uint32_t lane, HostId from, HostId to,
                   SimTime deliver_at, Message& msg);

  std::uint64_t salt_;
  double epoch_ms_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<std::unique_ptr<SimTransport>> transports_;
  std::vector<std::unique_ptr<ReliableTransport>> rels_;
  // mail_[src][dst]; diagonal unused.
  std::vector<std::vector<std::unique_ptr<SpscMailbox<RemoteDelivery>>>> mail_;
  std::vector<std::uint32_t> lane_of_;   // global host -> lane
  std::vector<std::uint32_t> local_of_;  // global host -> lane-local index
  std::unique_ptr<ShardedTransport> facade_;  // null at K = 1
  std::unique_ptr<ShardDriver> driver_;
};

}  // namespace hcube
