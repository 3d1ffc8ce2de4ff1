// Transport seam between the overlay and whatever moves its messages.
//
// Overlay (and through it the protocol modules) depends only on this
// interface: register an endpoint with a delivery handler, send a Message
// from one endpoint to another. What "sending" means — latency-modelled
// simulation, zero-latency loopback, eventually a real network backend — is
// the implementation's business. The implementations:
//   - SimTransport (net/sim_transport.h): per-pair latencies from a
//     LatencyModel, per-pair FIFO, ties by send order.
//   - LoopbackTransport (net/loopback_transport.h): zero latency, for
//     protocol-logic tests and micro-benchmarks.
//   - ReliableTransport (net/reliable_transport.h): a decorator adding
//     acks, retransmission and dedup on top of either, so the protocols
//     get the reliable delivery they assume even when the inner transport
//     is lossy (FaultPlan, net/fault_plan.h).
//   - ShardedTransport (net/sharded_net.h): the routing facade over K > 1
//     lanes of SimTransport + ReliableTransport. The simulation stack is
//     ShardedNet; at K = 1 it hands out lane 0's ReliableTransport itself,
//     so the single-queue stack is K = 1 of the sharded one.
// The in-process transports guarantee per-pair FIFO delivery on a clean
// network (delivery time is constant per ordered pair within a run and ties
// break by send order); under injected faults only ReliableTransport's
// at-least-once-then-dedup guarantee holds, and ordering may be disturbed —
// which is all the paper assumes (reliable delivery, not FIFO).
//
// Every transport inherits the FaultHooks seam (sim/fault_hooks.h): tests
// observe traffic via on_send and inject losses via drop_filter or a seeded
// FaultPlan via fault_injector.
#pragma once

#include <cstdint>
#include <functional>

#include "proto/messages.h"
#include "sim/event_queue.h"
#include "sim/fault_hooks.h"
#include "util/check.h"

namespace hcube {

class Transport : public FaultHooks<Message> {
 public:
  using Handler = std::function<void(HostId from, const Message& msg)>;

  virtual ~Transport() = default;

  // Registers an endpoint; returns its host id (a dense index). Endpoints
  // must be registered before any send to them.
  virtual HostId add_endpoint(Handler handler) = 0;

  // Registers an endpoint under a caller-chosen global host id. The default
  // requires the id to coincide with the next dense index (so decorators
  // like ReliableTransport work unchanged over ordinary transports); the
  // lane modes of PooledTransport and ReliableTransport override this to
  // map a global id onto lane-local dense storage (net/sharded_net.h).
  virtual HostId add_endpoint_as(HostId global, Handler handler) {
    HCUBE_CHECK_MSG(global == num_endpoints(),
                    "global id must be the next dense index here");
    return add_endpoint(std::move(handler));
  }
  virtual std::uint32_t num_endpoints() const = 0;

  // Sends msg from -> to. Returns false if the message was dropped by the
  // drop filter or the fault injector.
  virtual bool send(HostId from, HostId to, Message msg) = 0;

  virtual EventQueue& queue() = 0;

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t messages_delivered() const = 0;
  virtual std::uint64_t messages_dropped() const = 0;
};

}  // namespace hcube
