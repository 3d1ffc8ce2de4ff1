// Latency-modelled transport: per-pair latencies from a LatencyModel,
// per-pair FIFO, ties by send order, on the pooled allocation-free delivery
// path. The sharded stack's lanes are SimTransports in lane mode
// (net/pooled_transport.h).
#pragma once

#include <utility>

#include "net/pooled_transport.h"
#include "topology/latency.h"

namespace hcube {

class SimTransport final : public PooledTransport {
 public:
  SimTransport(EventQueue& queue, LatencyModel& latency,
               const std::vector<std::uint32_t>* local_index = nullptr,
               RemoteDispatch remote = nullptr)
      : PooledTransport(queue, latency.num_hosts(), local_index,
                        std::move(remote)),
        latency_(latency) {}

 protected:
  SimTime delay_ms(HostId from, HostId to) override {
    return latency_.latency_ms(from, to);
  }

 private:
  LatencyModel& latency_;
};

}  // namespace hcube
