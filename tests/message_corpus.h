// One representative message of every type, with non-trivial payloads
// where the type has any. Shared by the codec tests (golden byte pins,
// hardening) and the fuzz harness's seed corpus, so all three exercise the
// same shapes.
#pragma once

#include <cstdint>
#include <vector>

#include "ids/node_id.h"
#include "proto/messages.h"

namespace hcube::corpus {

inline TableSnapshot sample_snapshot(const IdParams& params,
                                     std::uint64_t seed) {
  TableSnapshot snap;
  UniqueIdGenerator gen(params, seed);
  const NodeId owner = gen.next();
  for (std::uint32_t i = 0; i < params.num_digits; ++i)
    snap.add(static_cast<std::uint8_t>(i),
             static_cast<std::uint8_t>(owner.digit(i)), owner,
             NeighborState::kS);
  for (int k = 0; k < 4; ++k) {
    const NodeId other = gen.next();
    const auto lvl = static_cast<std::uint8_t>(owner.csuf_len(other));
    const auto dig = static_cast<std::uint8_t>(other.digit(lvl));
    bool dup = false;
    for (const auto& e : snap.entries)
      if (e.level == lvl && e.digit == dig) dup = true;
    if (!dup) snap.add(lvl, dig, other, NeighborState::kT);
  }
  return snap;
}

// In MessageType order.
inline std::vector<Message> one_of_each(const IdParams& params) {
  UniqueIdGenerator gen(params, 99);
  const NodeId sender = gen.next();
  const NodeId a = gen.next(), b = gen.next();
  const TableSnapshot snap = sample_snapshot(params, 101);

  JoinNotiMsg noti;
  noti.table = snap;
  noti.sender_noti_level = 2;
  BitVec filled(params.num_digits * params.base);
  filled.set(1);
  filled.set(params.num_digits * params.base - 1);
  noti.filled = filled;

  std::vector<Message> all;
  all.push_back({sender, CpRstMsg{}});
  all.push_back({sender, CpRlyMsg{snap}});
  all.push_back({sender, JoinWaitMsg{}});
  all.push_back({sender, JoinWaitRlyMsg{true, a, snap}});
  all.push_back({sender, noti});
  all.push_back({sender, JoinNotiRlyMsg{true, snap, true}});
  all.push_back({sender, InSysNotiMsg{}});
  all.push_back({sender, SpeNotiMsg{a, b}});
  all.push_back({sender, SpeNotiRlyMsg{a, b}});
  all.push_back({sender, RvNghNotiMsg{NeighborState::kT}});
  all.push_back({sender, RvNghNotiRlyMsg{NeighborState::kS}});
  all.push_back({sender, LeaveMsg{snap}});
  all.push_back({sender, LeaveRlyMsg{}});
  all.push_back({sender, NghDropMsg{}});
  all.push_back({sender, PingMsg{}});
  all.push_back({sender, PongMsg{}});
  all.push_back({sender, RepairQueryMsg{2, 5}});
  all.push_back({sender, RepairRlyMsg{2, 5, a}});
  all.push_back({sender, AnnounceMsg{snap}});
  all.push_back({sender, RelAckMsg{12345}});
  return all;
}

}  // namespace hcube::corpus
