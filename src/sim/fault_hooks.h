// Shared observation/fault-injection seam of every message-moving component.
//
// Every net/ transport — the lanes of the one simulation stack
// (net/sharded_net.h; K = 1 is the single-queue stack), its routing facade,
// the reliable decorator and the loopback transport — shares this on_send /
// drop_filter / fault_injector plumbing, written once here.
// A component inherits FaultHooks<Msg> publicly (so `t.on_send = ...` and
// `t.drop_filter = ...` keep working) and calls admit() at the top of its
// send path: admit fires the observation hook, consults the drop filter,
// then asks the fault injector — if one is installed — what to do with the
// message. FaultPlan (net/fault_plan.h) is the seeded, reproducible injector
// built on this seam; ad-hoc test lambdas plug into the same three hooks.
#pragma once

#include <functional>

#include "util/host.h"

namespace hcube {

enum class FaultAction : std::uint8_t {
  kDeliver,    // deliver normally (possibly with extra delay)
  kDrop,       // silently lose the message
  kDuplicate,  // deliver twice (the copy also gets the extra delay)
};

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  double extra_delay_ms = 0.0;  // added on top of the modelled latency
};

template <typename Msg>
class FaultHooks {
 public:
  // Observation hook: called for every send attempt (before drop filtering).
  std::function<void(HostId from, HostId to, const Msg& msg)> on_send;
  // Failure injection: return true to drop the message. Kept alongside the
  // richer fault_injector because a plain predicate is the right tool for
  // "lose exactly these messages" tests; when both are set the drop filter
  // is consulted first.
  std::function<bool(HostId from, HostId to, const Msg& msg)> drop_filter;
  // Rich failure injection: decides drop/duplicate/extra-delay per message.
  // Installed by FaultPlan::attach; only consulted when the drop filter
  // (if any) let the message through.
  std::function<FaultDecision(HostId from, HostId to, const Msg& msg)>
      fault_injector;

 protected:
  ~FaultHooks() = default;

  // The send-path preamble every implementation shares.
  FaultDecision admit(HostId from, HostId to, const Msg& msg) const {
    if (on_send) on_send(from, to, msg);
    if (drop_filter && drop_filter(from, to, msg))
      return {FaultAction::kDrop, 0.0};
    if (fault_injector) return fault_injector(from, to, msg);
    return {};
  }
};

}  // namespace hcube
