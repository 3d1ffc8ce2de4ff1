#include "proto/messages.h"

#include "proto/conformance.h"

namespace hcube {

const char* type_name(MessageType t) {
  switch (t) {
    case MessageType::kCpRst: return "CpRstMsg";
    case MessageType::kCpRly: return "CpRlyMsg";
    case MessageType::kJoinWait: return "JoinWaitMsg";
    case MessageType::kJoinWaitRly: return "JoinWaitRlyMsg";
    case MessageType::kJoinNoti: return "JoinNotiMsg";
    case MessageType::kJoinNotiRly: return "JoinNotiRlyMsg";
    case MessageType::kInSysNoti: return "InSysNotiMsg";
    case MessageType::kSpeNoti: return "SpeNotiMsg";
    case MessageType::kSpeNotiRly: return "SpeNotiRlyMsg";
    case MessageType::kRvNghNoti: return "RvNghNotiMsg";
    case MessageType::kRvNghNotiRly: return "RvNghNotiRlyMsg";
    case MessageType::kLeave: return "LeaveMsg";
    case MessageType::kLeaveRly: return "LeaveRlyMsg";
    case MessageType::kNghDrop: return "NghDropMsg";
    case MessageType::kPing: return "PingMsg";
    case MessageType::kPong: return "PongMsg";
    case MessageType::kRepairQuery: return "RepairQueryMsg";
    case MessageType::kRepairRly: return "RepairRlyMsg";
    case MessageType::kAnnounce: return "AnnounceMsg";
    case MessageType::kRelAck: return "RelAckMsg";
  }
  return "UnknownMsg";
}

// Both predicates are lookups into the conformance registry
// (proto/conformance.h): the registry is the single source of truth for a
// message type's handling contract, and its static_asserts keep the table
// in enumerator order with exactly kNumMessageTypes entries.
bool is_big_request(MessageType t) { return conformance_of(t).big_request; }

bool echoes_request_gen(MessageType t) { return conformance_of(t).echoes_gen; }

}  // namespace hcube
