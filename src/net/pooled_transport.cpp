#include "net/pooled_transport.h"

#include <utility>

#include "util/check.h"

namespace hcube {

PooledTransport::PooledTransport(EventQueue& queue,
                                 std::uint32_t max_endpoints,
                                 const std::vector<std::uint32_t>* local_index,
                                 RemoteDispatch remote)
    : queue_(queue),
      max_endpoints_(max_endpoints),
      local_index_(local_index),
      remote_(std::move(remote)) {
  HCUBE_CHECK_MSG(remote_ == nullptr || local_index_ != nullptr,
                  "remote dispatch needs a lane-local index");
  if (local_index_ == nullptr) handlers_.reserve(max_endpoints_);
}

HostId PooledTransport::add_endpoint(Handler handler) {
  HCUBE_CHECK_MSG(local_index_ == nullptr,
                  "lane-mode endpoints must register via add_endpoint_as");
  HCUBE_CHECK_MSG(handlers_.size() < max_endpoints_,
                  "more endpoints than the transport was sized for");
  handlers_.push_back(std::move(handler));
  return static_cast<HostId>(handlers_.size() - 1);
}

HostId PooledTransport::add_endpoint_as(HostId global, Handler handler) {
  if (local_index_ == nullptr)
    return Transport::add_endpoint_as(global, std::move(handler));
  HCUBE_CHECK_MSG(handlers_.size() < max_endpoints_,
                  "more endpoints than the transport was sized for");
  HCUBE_CHECK_MSG((*local_index_)[global] == handlers_.size(),
                  "endpoint registered out of lane order");
  handlers_.push_back(std::move(handler));
  return global;
}

std::uint32_t PooledTransport::park(Message msg) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(msg);
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::move(msg));
  return slot;
}

void PooledTransport::dispatch(HostId from, HostId to, SimTime deliver_at,
                               Message&& msg) {
  ++messages_sent_;
  if (remote_ && remote_(from, to, deliver_at, msg)) {
    ++remote_sent_;
    return;
  }
  queue_.schedule_delivery_at(deliver_at, this, from, to,
                              park(std::move(msg)));
}

bool PooledTransport::send(HostId from, HostId to, Message msg) {
  HCUBE_CHECK(from < hosts() && to < hosts());
  const FaultDecision d = admit(from, to, msg);
  if (d.action == FaultAction::kDrop) {
    ++messages_dropped_;
    return false;
  }
  const SimTime deliver_at =
      queue_.now() + (delay_ms(from, to) + d.extra_delay_ms);
  // The duplicate gets its own slab slot (both copies are in flight at
  // once), the same delivery time, and is dispatched first.
  if (d.action == FaultAction::kDuplicate)
    dispatch(from, to, deliver_at, Message(msg));
  dispatch(from, to, deliver_at, std::move(msg));
  return true;
}

void PooledTransport::deliver_remote(SimTime deliver_at, HostId from,
                                     HostId to, Message msg) {
  queue_.schedule_delivery_at(deliver_at, this, from, to,
                              park(std::move(msg)));
}

void PooledTransport::deliver(HostId from, HostId to,
                              std::uint32_t payload_slot) {
  // The payload is handed to the handler in place — the slab is a deque, so
  // a handler that sends (growing the slab or recycling other slots) cannot
  // invalidate this reference, and the slot is released only afterwards.
  ++messages_delivered_;
  handlers_[lx(to)](from, slots_[payload_slot]);
  free_slots_.push_back(payload_slot);
}

}  // namespace hcube
