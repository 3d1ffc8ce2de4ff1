// Join-protocol messages (Figure 4 of the paper) and table snapshots.
//
// Every message type from the paper is represented, including the
// reverse-neighbor notifications (RvNghNotiMsg / RvNghNotiRlyMsg) whose
// send/receive the paper's pseudo-code elides "for clarity" but which the
// protocol depends on (InSysNotiMsg goes to reverse neighbors).
//
// Messages that carry a neighbor table carry a TableSnapshot: the list of
// non-null entries at the sender at send time. Section 6.2's size
// reductions (partial levels, bit-vector-pruned replies) shrink what the
// sender includes; wire_size_bytes() gives the resulting message sizes.
//
// Every message body with fields lists them once, in wire order, as its
// kWire tuple. The codec (proto/codec.cpp) walks that one list to size,
// write and read the message, so the size model, the encoder and the
// decoder cannot disagree. A listed member travels by its type:
//   bool, NeighborState    one byte, 0 or 1 (decode rejects anything else)
//   NodeId                 a node reference (encode requires a valid ID)
//   TableSnapshot          presence bitmap, then (ref, state) per entry
//   std::uint32_t          four bytes
//   std::optional<BitVec>  d*b bits when present, flagged in the header
// unless it is wrapped by wire::as<Kind>:
//   wire::Level, Digit     one byte, decode requires < d resp. < b
//   wire::HeaderAux        the header's aux byte; no body bytes
//   wire::MaybeRef         a NodeId that may be invalid: a presence byte,
//                          then the reference when valid
// Empty bodies need no list.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "ids/node_id.h"
#include "util/bitvec.h"

namespace hcube {

// State a node records for each stored neighbor: S = the neighbor is known
// to be in status in_system (an S-node), T = not yet.
enum class NeighborState : std::uint8_t { kT, kS };

// One non-null neighbor-table entry as carried in a message.
struct SnapshotEntry {
  std::uint8_t level;   // i
  std::uint8_t digit;   // j
  NodeId node;          // the (i, j)-neighbor
  NeighborState state;  // sender's recorded state for it
};

struct TableSnapshot {
  std::vector<SnapshotEntry> entries;

  void add(std::uint8_t level, std::uint8_t digit, NodeId node,
           NeighborState state) {
    entries.push_back({level, digit, std::move(node), state});
  }
  std::size_t size() const { return entries.size(); }
};

namespace wire {

struct Level {};
struct Digit {};
struct HeaderAux {};
struct MaybeRef {};

// A kWire entry whose member travels as Kind rather than by its type.
template <class Kind, class Body, class V>
struct Field {
  V Body::*member;
};

template <class Kind, class Body, class V>
constexpr Field<Kind, Body, V> as(V Body::*member) {
  return {member};
}

}  // namespace wire

// ---- Message bodies (names follow Figure 4) ----

struct CpRstMsg {};  // request a copy of the receiver's table

struct CpRlyMsg {  // reply with the table
  TableSnapshot table;
  static constexpr std::tuple kWire{&CpRlyMsg::table};
};

struct JoinWaitMsg {};  // "x is waiting to be stored in your table"

struct JoinWaitRlyMsg {
  bool positive;  // r in the paper: positive = receiver stored the sender
  NodeId u;       // on negative: the node already occupying the entry
  TableSnapshot table;
  static constexpr std::tuple kWire{&JoinWaitRlyMsg::positive,
                                    &JoinWaitRlyMsg::u,
                                    &JoinWaitRlyMsg::table};
};

struct JoinNotiMsg {
  TableSnapshot table;  // x.table (possibly only levels noti_level..k, §6.2)
  // x's notification level; the §6.2 bit-vector reply includes all entries
  // at levels >= this unconditionally (x must *discover* nodes there, not
  // just fill holes).
  std::uint8_t sender_noti_level = 0;
  // §6.2 enhancement: bit vector of x's filled entries ('1' = filled), so
  // the receiver can prune its reply. Not sent in the baseline policy.
  std::optional<BitVec> filled;
  static constexpr std::tuple kWire{
      wire::as<wire::HeaderAux>(&JoinNotiMsg::sender_noti_level),
      &JoinNotiMsg::table, &JoinNotiMsg::filled};
};

struct JoinNotiRlyMsg {
  bool positive;        // r: receiver stores (or already stored) the sender
  TableSnapshot table;  // y.table (possibly pruned by the bit vector)
  bool flag;            // f: triggers SpeNotiMsg (see Figure 10)
  static constexpr std::tuple kWire{&JoinNotiRlyMsg::positive,
                                    &JoinNotiRlyMsg::flag,
                                    &JoinNotiRlyMsg::table};
};

struct InSysNotiMsg {};  // "I have become an S-node"

struct SpeNotiMsg {  // inform receiver of the existence of y
  NodeId x;  // initial sender (collects the final reply)
  NodeId y;  // the node being announced
  static constexpr std::tuple kWire{&SpeNotiMsg::x, &SpeNotiMsg::y};
};

struct SpeNotiRlyMsg {
  NodeId x;
  NodeId y;
  static constexpr std::tuple kWire{&SpeNotiRlyMsg::x, &SpeNotiRlyMsg::y};
};

struct RvNghNotiMsg {  // "I stored you in my table" (sender is a reverse
                       // neighbor of the receiver)
  NeighborState recorded_state;  // s: state the sender recorded
  static constexpr std::tuple kWire{&RvNghNotiMsg::recorded_state};
};

struct RvNghNotiRlyMsg {
  NeighborState actual_state;  // S iff the replier is in status in_system
  static constexpr std::tuple kWire{&RvNghNotiRlyMsg::actual_state};
};

// ---- Leave-protocol messages (this library's extension; the paper defers
// ---- the leave protocol to future work, see Section 7) ----

struct LeaveMsg {  // "I am leaving; here are replacement candidates"
  // The leaver's level-(k+1) table row, where k = |csuf(leaver, receiver)|:
  // by consistency of the leaver's table this row contains a representative
  // of every non-empty sub-class of the suffix class the receiver's entry
  // covers, so the receiver can repair locally (or correctly null the
  // entry when the leaver was the last member).
  TableSnapshot candidates;
  static constexpr std::tuple kWire{&LeaveMsg::candidates};
};

struct LeaveRlyMsg {};  // ack: receiver repaired (or didn't need to)

struct NghDropMsg {};  // "forget me as your reverse neighbor"

// ---- Failure-recovery messages (extension; the paper defers failure
// ---- recovery alongside leaving, Section 7) ----

struct PingMsg {};  // liveness probe
struct PongMsg {};

struct RepairQueryMsg {  // "what does your (level, digit) entry hold?"
  std::uint8_t level;
  std::uint8_t digit;
  static constexpr std::tuple kWire{
      wire::as<wire::Level>(&RepairQueryMsg::level),
      wire::as<wire::Digit>(&RepairQueryMsg::digit)};
};

struct RepairRlyMsg {
  std::uint8_t level;
  std::uint8_t digit;
  NodeId candidate;  // invalid = no candidate (entry empty or not shared)
  static constexpr std::tuple kWire{
      wire::as<wire::Level>(&RepairRlyMsg::level),
      wire::as<wire::Digit>(&RepairRlyMsg::digit),
      wire::as<wire::MaybeRef>(&RepairRlyMsg::candidate)};
};

// Push-phase re-announcement: after a repair round clears every entry that
// pointed at a dead node, each survivor pushes its table to its neighbors
// and reverse neighbors; receivers fill empty entries (the same fill rule
// as the join protocol's Check_Ngh_Table). This rediscovers class members
// that lost their only inbound pointer when a crashed node died. No reply.
struct AnnounceMsg {
  TableSnapshot table;
  static constexpr std::tuple kWire{&AnnounceMsg::table};
};

// ---- Reliable-delivery message (transport-internal; see
// ---- net/reliable_transport.h) ----

struct RelAckMsg {  // acknowledges receipt of the message numbered acked_seq
  std::uint32_t acked_seq = 0;
  static constexpr std::tuple kWire{&RelAckMsg::acked_seq};
};

using MessageBody =
    std::variant<CpRstMsg, CpRlyMsg, JoinWaitMsg, JoinWaitRlyMsg, JoinNotiMsg,
                 JoinNotiRlyMsg, InSysNotiMsg, SpeNotiMsg, SpeNotiRlyMsg,
                 RvNghNotiMsg, RvNghNotiRlyMsg, LeaveMsg, LeaveRlyMsg,
                 NghDropMsg, PingMsg, PongMsg, RepairQueryMsg, RepairRlyMsg,
                 AnnounceMsg, RelAckMsg>;

// Envelope: in a deployment the sender's (ID, IP) rides in every message;
// here the sender ID is explicit and the "IP address" is the simulator host
// id carried by the transport. Two envelope words ride in the wire header's
// reserved bytes:
//   rel_seq — per-(sender host, receiver host) sequence number stamped by
//             ReliableTransport (0 = untracked, e.g. on a plain transport);
//   gen     — the sender's join-attempt generation. Requests carry the
//             sender's current generation; replies echo the request's, so a
//             joiner that aborted and restarted its join (join-stall
//             watchdog) can reject replies addressed to the dead attempt.
struct Message {
  NodeId sender;
  MessageBody body;
  std::uint32_t rel_seq = 0;
  std::uint32_t gen = 0;
};

enum class MessageType : std::uint8_t {
  kCpRst,
  kCpRly,
  kJoinWait,
  kJoinWaitRly,
  kJoinNoti,
  kJoinNotiRly,
  kInSysNoti,
  kSpeNoti,
  kSpeNotiRly,
  kRvNghNoti,
  kRvNghNotiRly,
  kLeave,
  kLeaveRly,
  kNghDrop,
  kPing,
  kPong,
  kRepairQuery,
  kRepairRly,
  kAnnounce,
  kRelAck,
};
inline constexpr std::size_t kNumMessageTypes =
    std::variant_size_v<MessageBody>;

// Enumerator i names alternative i of MessageBody, so type_of() is the
// variant index. Each pairing is stated here once.
template <MessageType T, class Body>
inline constexpr bool kIsBodyOf = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(T), MessageBody>, Body>;
static_assert(kIsBodyOf<MessageType::kCpRst, CpRstMsg> &&
              kIsBodyOf<MessageType::kCpRly, CpRlyMsg> &&
              kIsBodyOf<MessageType::kJoinWait, JoinWaitMsg> &&
              kIsBodyOf<MessageType::kJoinWaitRly, JoinWaitRlyMsg> &&
              kIsBodyOf<MessageType::kJoinNoti, JoinNotiMsg> &&
              kIsBodyOf<MessageType::kJoinNotiRly, JoinNotiRlyMsg> &&
              kIsBodyOf<MessageType::kInSysNoti, InSysNotiMsg> &&
              kIsBodyOf<MessageType::kSpeNoti, SpeNotiMsg> &&
              kIsBodyOf<MessageType::kSpeNotiRly, SpeNotiRlyMsg> &&
              kIsBodyOf<MessageType::kRvNghNoti, RvNghNotiMsg> &&
              kIsBodyOf<MessageType::kRvNghNotiRly, RvNghNotiRlyMsg> &&
              kIsBodyOf<MessageType::kLeave, LeaveMsg> &&
              kIsBodyOf<MessageType::kLeaveRly, LeaveRlyMsg> &&
              kIsBodyOf<MessageType::kNghDrop, NghDropMsg> &&
              kIsBodyOf<MessageType::kPing, PingMsg> &&
              kIsBodyOf<MessageType::kPong, PongMsg> &&
              kIsBodyOf<MessageType::kRepairQuery, RepairQueryMsg> &&
              kIsBodyOf<MessageType::kRepairRly, RepairRlyMsg> &&
              kIsBodyOf<MessageType::kAnnounce, AnnounceMsg> &&
              kIsBodyOf<MessageType::kRelAck, RelAckMsg> &&
                  static_cast<std::size_t>(MessageType::kRelAck) + 1 ==
                      kNumMessageTypes,
              "MessageType must name the MessageBody alternatives in order");

inline MessageType type_of(const MessageBody& body) {
  return static_cast<MessageType>(body.index());
}
const char* type_name(MessageType t);

// Is this one of the three "big" message types of §5.2 (those that may carry
// a table)? Their replies are big too; the paper's analysis counts requests
// only since replies are 1:1.
bool is_big_request(MessageType t);

// Does a message of this type answer (or forward on behalf of) a specific
// incoming message, and therefore echo that message's generation tag rather
// than carry the sender's own? True for the six join replies, Pong,
// LeaveRlyMsg and RepairRlyMsg — and for SpeNotiMsg, which is originated and
// forwarded while handling a message of the announced attempt, so the echo
// carries the originator's generation down the chain to its reply.
bool echoes_request_gen(MessageType t);

// ---- Wire sizes (defined with the codec, proto/codec.cpp) ----
//
// header: 40 bytes (IP + UDP + message type + join-protocol header)
// node id: ceil(d * ceil(log2 b) / 8) bytes
// node reference (id + IPv4:port): id bytes + 6
// table snapshot: d*b-bit presence bitmap + one node reference + state byte
//                 per present entry
// A message is the header, the sender's reference and its kWire fields.

std::size_t id_wire_bytes(const IdParams& params);
std::size_t node_ref_wire_bytes(const IdParams& params);
std::size_t snapshot_wire_bytes(const TableSnapshot& snap,
                                const IdParams& params);
std::size_t wire_size_bytes(const MessageBody& body, const IdParams& params);
std::size_t wire_size_bytes(const Message& msg, const IdParams& params);

}  // namespace hcube
