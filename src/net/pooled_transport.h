// Shared machinery of the in-process transports: a payload slab plus the
// event queue's typed delivery events.
//
// send() parks the Message in a recycled slab slot and schedules a
// {sink, from, to, slot} event — no closure, no per-message heap traffic.
// Once the slab and the queue's heap have grown to the workload's
// high-water mark, a steady-state send+delivery does zero allocations
// (payloads that carry table snapshots still own their vectors, but that
// memory belongs to the protocol layer, not to the transport).
//
// Lane mode (net/sharded_net.h): with a borrowed host -> local-index column
// the transport keeps speaking global host ids while its handler column is
// indexed by (*local_index)[host] — the same pattern as ReliableTransport's
// lane mode — and endpoints register via add_endpoint_as. A remote-dispatch
// hook then sees every copy a send dispatches and may take it (its
// destination lives on another lane); copies it declines are scheduled on
// this transport's own queue. Fault decisions, the duplicate-before-primary
// order and the shared delivery time are identical either way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/transport.h"

namespace hcube {

class PooledTransport : public Transport, private DeliverySink {
 public:
  // Offered every dispatched copy in lane mode; returns true when it took
  // the message (moving it out), false to deliver it locally.
  using RemoteDispatch = std::function<bool(HostId from, HostId to,
                                            SimTime deliver_at, Message& msg)>;

  HostId add_endpoint(Handler handler) override;
  HostId add_endpoint_as(HostId global, Handler handler) override;
  std::uint32_t num_endpoints() const override {
    return static_cast<std::uint32_t>(handlers_.size());
  }

  bool send(HostId from, HostId to, Message msg) override;

  EventQueue& queue() override { return queue_; }

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t messages_delivered() const override {
    return messages_delivered_;
  }
  std::uint64_t messages_dropped() const override {
    return messages_dropped_;
  }
  // Copies the remote-dispatch hook took (counted in messages_sent too).
  std::uint64_t remote_sent() const { return remote_sent_; }

  // Schedules a copy another lane's transport dispatched here, at the
  // delivery time fixed when it was sent (never in the past: the sharded
  // driver's epoch invariant, sim/shard_driver.h).
  void deliver_remote(SimTime deliver_at, HostId from, HostId to, Message msg);

  // Capacity hint for a lane-mode handler column, which holds a share of
  // the hosts and so is not reserved at construction.
  void reserve_endpoints(std::size_t n) { handlers_.reserve(n); }

  // Slab introspection (tests and benches assert steady-state reuse).
  std::size_t payload_pool_size() const { return slots_.size(); }
  std::size_t payload_pool_free() const { return free_slots_.size(); }

 protected:
  // max_endpoints bounds endpoint registrations. Without a local index the
  // handler table is reserved up front so registration never reallocates
  // it mid-run; with one (lane mode, see above) `remote` is the optional
  // remote-dispatch hook.
  PooledTransport(EventQueue& queue, std::uint32_t max_endpoints,
                  const std::vector<std::uint32_t>* local_index = nullptr,
                  RemoteDispatch remote = nullptr);

  // One-way delivery delay for an ordered pair; must be deterministic
  // within a run (per-pair FIFO relies on it being constant per pair).
  virtual SimTime delay_ms(HostId from, HostId to) = 0;

 private:
  void deliver(HostId from, HostId to, std::uint32_t payload_slot) override;
  // Hands one copy to the remote-dispatch hook or schedules it locally.
  void dispatch(HostId from, HostId to, SimTime deliver_at, Message&& msg);
  // Parks the message in a recycled slab slot; returns the slot.
  std::uint32_t park(Message msg);

  // Dense handler index of a host registered here.
  std::uint32_t lx(HostId h) const {
    return local_index_ ? (*local_index_)[h] : h;
  }
  // Hosts registered anywhere a send may address.
  std::size_t hosts() const {
    return local_index_ ? local_index_->size() : handlers_.size();
  }

  EventQueue& queue_;
  std::uint32_t max_endpoints_;
  const std::vector<std::uint32_t>* local_index_;
  RemoteDispatch remote_;
  std::vector<Handler> handlers_;
  // Deque, not vector: growing the slab mid-delivery (a handler that sends)
  // must not invalidate the reference the in-flight delivery handed out.
  std::deque<Message> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t remote_sent_ = 0;
};

}  // namespace hcube
