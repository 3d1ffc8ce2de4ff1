// Wire codec for protocol messages.
//
// The simulator passes Message objects by value, but a real deployment
// ships bytes; this codec defines the byte format. wire_size_bytes(),
// encode_message() and decode_message() are one walk over each body's
// kWire field list (messages.h), so the size model used throughout the
// benchmarks is not an estimate but the definition of the format.
//
// Layout (all integers little-endian):
//   header (40 bytes):
//     magic "HCUB" (4) | version (1) | type (1) | aux (1) | flags (1)
//     rel_seq (4) | gen (4) — reliable-delivery sequence number and
//                      join-attempt generation (Message envelope fields)
//     reserved (24)  — stands in for the IP/UDP overhead the paper's
//                      size analysis includes in a "big message"
//   sender node-ref
//   body: the type's kWire fields, in order (see messages.h)
//
// A node-ref is the ID's digits packed at ceil(log2 b) bits per digit
// (digit 0 first), followed by an IPv4 address (4) and port (2). A table
// snapshot is a d*b-bit presence bitmap in (level-major, digit-minor)
// order followed by (node-ref, state byte) pairs for each set bit, in
// bitmap order.
//
// The aux header byte carries a wire::HeaderAux field (JoinNotiMsg's
// sender_noti_level; 0 otherwise); flags bit 0 marks the presence of an
// optional bit vector (JoinNotiMsg's §6.2 filled-entry vector).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "proto/messages.h"

namespace hcube {

// Placeholder endpoint; real deployments would carry the sender's actual
// address. The simulator uses host ids.
struct WireAddress {
  std::uint32_t ipv4 = 0;
  std::uint16_t port = 0;
};

// Serializes the message. Output size is exactly
// wire_size_bytes(msg, params).
std::vector<std::uint8_t> encode_message(const Message& msg,
                                         const IdParams& params,
                                         const WireAddress& sender_addr = {});

// Parses a message. Returns nullopt on any malformed input (bad magic,
// truncation, digit out of range, bitmap/payload mismatch, unknown type).
std::optional<Message> decode_message(const std::vector<std::uint8_t>& bytes,
                                      const IdParams& params);

}  // namespace hcube
