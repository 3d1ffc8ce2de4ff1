#include "proto/codec.h"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace hcube {
namespace {

constexpr std::uint8_t kMagic[4] = {'H', 'C', 'U', 'B'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kOffType = 5;
constexpr std::size_t kOffAux = 6;
constexpr std::size_t kOffFlags = 7;
// Envelope words in the (formerly all-reserved) header tail.
constexpr std::size_t kOffRelSeq = 8;
constexpr std::size_t kOffGen = 12;
constexpr std::uint8_t kFlagHasBitvec = 0x01;

std::size_t bitmap_bits(const IdParams& params) {
  return static_cast<std::size_t>(params.num_digits) * params.base;
}

unsigned bits_per_digit(const IdParams& params) {
  return static_cast<unsigned>(std::bit_width(params.base - 1));
}

// ---- The walker: every size, write and read goes through here ----

template <class Op, class Body, class T, class V>
void visit_field(Op& op, Body& body, V T::*member) {
  op(body.*member);
}

template <class Op, class Body, class Kind, class T, class V>
void visit_field(Op& op, Body& body, const wire::Field<Kind, T, V>& field) {
  op(Kind{}, body.*field.member);
}

// Applies `op` to each kWire entry of `body` in wire order. Body is const
// when sizing or writing and mutable when reading.
template <class Op, class Body>
void walk(Op& op, Body& body) {
  using T = std::remove_const_t<Body>;
  if constexpr (!std::is_empty_v<T>) {
    std::apply(
        [&](const auto&... field) { (visit_field(op, body, field), ...); },
        T::kWire);
  }
}

struct Sizer {
  const IdParams& params;
  std::size_t ref;  // node_ref_wire_bytes(params)
  std::size_t bytes;

  void operator()(bool) { bytes += 1; }
  void operator()(NeighborState) { bytes += 1; }
  void operator()(std::uint32_t) { bytes += 4; }
  void operator()(const NodeId&) { bytes += ref; }
  void operator()(const TableSnapshot& snap) {
    bytes += snapshot_wire_bytes(snap, params);
  }
  void operator()(const std::optional<BitVec>& bits) {
    if (bits) bytes += bits->size_bytes();
  }
  void operator()(wire::Level, std::uint8_t) { bytes += 1; }
  void operator()(wire::Digit, std::uint8_t) { bytes += 1; }
  void operator()(wire::HeaderAux, std::uint8_t) {}
  void operator()(wire::MaybeRef, const NodeId& id) {
    bytes += 1 + (id.is_valid() ? ref : 0);
  }
};

class Writer {
 public:
  Writer(std::vector<std::uint8_t>& out, const IdParams& params)
      : out_(out), params_(params) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

  void node_ref(const NodeId& id, const WireAddress& addr = {}) {
    HCUBE_CHECK_MSG(id.is_valid(), "cannot encode an invalid node ID");
    const unsigned bpd = bits_per_digit(params_);
    for (std::size_t i = 0; i < params_.num_digits; ++i)
      bits(id.digit(i), bpd);
    align_byte();
    // Writer::bits emitted exactly the model's ceil(d * bpd / 8) bytes.
    u32(addr.ipv4);
    u16(addr.port);
  }

  // ---- kWire fields ----

  void operator()(bool v) { u8(v ? 1 : 0); }
  void operator()(NeighborState s) { u8(s == NeighborState::kS ? 1 : 0); }
  void operator()(std::uint32_t v) { u32(v); }
  void operator()(const NodeId& id) { node_ref(id); }
  void operator()(const TableSnapshot& snap) {
    // Presence bitmap, level-major, then the entries in bitmap order.
    const std::size_t nbits = bitmap_bits(params_);
    BitVec bitmap(nbits);
    std::vector<const SnapshotEntry*> ordered(nbits, nullptr);
    for (const SnapshotEntry& e : snap.entries) {
      HCUBE_CHECK(e.level < params_.num_digits && e.digit < params_.base);
      const std::size_t bit =
          static_cast<std::size_t>(e.level) * params_.base + e.digit;
      HCUBE_CHECK_MSG(!bitmap.get(bit), "duplicate snapshot entry");
      bitmap.set(bit);
      ordered[bit] = &e;
    }
    bitvec(bitmap);
    for (const SnapshotEntry* e : ordered) {
      if (e == nullptr) continue;
      node_ref(e->node);
      (*this)(e->state);
    }
  }
  void operator()(const std::optional<BitVec>& bits) {
    if (!bits) return;
    out_[kOffFlags] |= kFlagHasBitvec;
    bitvec(*bits);
  }
  void operator()(wire::Level, std::uint8_t v) { u8(v); }
  void operator()(wire::Digit, std::uint8_t v) { u8(v); }
  void operator()(wire::HeaderAux, std::uint8_t v) { out_[kOffAux] = v; }
  void operator()(wire::MaybeRef, const NodeId& id) {
    (*this)(id.is_valid());
    if (id.is_valid()) node_ref(id);
  }

 private:
  // Packs `nbits` of v at the current bit cursor (little-endian bit order).
  void bits(std::uint32_t v, unsigned nbits) {
    for (unsigned i = 0; i < nbits; ++i) {
      if (bit_pos_ == 0) out_.push_back(0);
      if ((v >> i) & 1) out_.back() |= static_cast<std::uint8_t>(1 << bit_pos_);
      bit_pos_ = (bit_pos_ + 1) % 8;
    }
  }
  void align_byte() { bit_pos_ = 0; }
  void bitvec(const BitVec& v) {
    for (std::size_t i = 0; i < v.size(); ++i) bits(v.get(i) ? 1 : 0, 1);
    align_byte();
  }

  std::vector<std::uint8_t>& out_;
  const IdParams& params_;
  unsigned bit_pos_ = 0;
};

// Reads past the header. Any malformed field clears ok(); later reads on a
// failed reader are harmless and the caller rejects the message.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& in, const IdParams& params)
      : in_(in), params_(params) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }

  std::uint8_t u8() {
    if (pos_ >= in_.size()) {
      ok_ = false;
      return 0;
    }
    return in_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }

  std::optional<NodeId> node_ref() {
    const unsigned bpd = bits_per_digit(params_);
    std::vector<Digit> digits(params_.num_digits);
    for (auto& d : digits) {
      const std::uint32_t v = bits(bpd);
      if (!ok_ || v >= params_.base) return std::nullopt;
      d = static_cast<Digit>(v);
    }
    align_byte();
    u32();  // address (opaque here)
    u16();  // port
    if (!ok_) return std::nullopt;
    return NodeId(std::move(digits), params_);
  }

  // ---- kWire fields ----

  void operator()(bool& v) { v = below(2) != 0; }
  void operator()(NeighborState& s) {
    s = below(2) ? NeighborState::kS : NeighborState::kT;
  }
  void operator()(std::uint32_t& v) { v = u32(); }
  void operator()(NodeId& id) {
    auto ref = node_ref();
    if (ref)
      id = std::move(*ref);
    else
      ok_ = false;
  }
  void operator()(TableSnapshot& snap) {
    const BitVec bitmap = bitvec(bitmap_bits(params_));
    for (std::size_t i = 0; ok_ && i < bitmap.size(); ++i) {
      if (!bitmap.get(i)) continue;
      const auto level = static_cast<std::uint8_t>(i / params_.base);
      const auto digit = static_cast<std::uint8_t>(i % params_.base);
      NodeId node;
      NeighborState state = NeighborState::kT;
      (*this)(node);
      (*this)(state);
      // The entry must respect the bitmap slot's digit.
      if (!ok_ || node.digit(level) != digit) {
        ok_ = false;
        return;
      }
      snap.add(level, digit, std::move(node), state);
    }
  }
  void operator()(std::optional<BitVec>& bits) {
    if (in_[kOffFlags] & kFlagHasBitvec) bits = bitvec(bitmap_bits(params_));
  }
  void operator()(wire::Level, std::uint8_t& v) {
    v = below(params_.num_digits);
  }
  void operator()(wire::Digit, std::uint8_t& v) { v = below(params_.base); }
  void operator()(wire::HeaderAux, std::uint8_t& v) { v = in_[kOffAux]; }
  void operator()(wire::MaybeRef, NodeId& id) {
    bool present = false;
    (*this)(present);
    if (present) (*this)(id);
  }

 private:
  std::uint8_t below(std::uint32_t limit) {
    const std::uint8_t v = u8();
    if (v >= limit) ok_ = false;
    return v;
  }
  std::uint32_t bits(unsigned nbits) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) {
      if (bit_pos_ == 0) {
        if (pos_ >= in_.size()) {
          ok_ = false;
          return 0;
        }
        cur_ = in_[pos_++];
      }
      v |= static_cast<std::uint32_t>((cur_ >> bit_pos_) & 1) << i;
      bit_pos_ = (bit_pos_ + 1) % 8;
    }
    return v;
  }
  void align_byte() { bit_pos_ = 0; }
  BitVec bitvec(std::size_t nbits) {
    BitVec v(nbits);
    for (std::size_t i = 0; i < nbits; ++i)
      if (bits(1)) v.set(i);
    align_byte();
    return v;
  }

  const std::vector<std::uint8_t>& in_;
  const IdParams& params_;
  std::size_t pos_ = kHeaderBytes;
  bool ok_ = true;
  unsigned bit_pos_ = 0;
  std::uint8_t cur_ = 0;
};

template <class Body>
void read_body(Reader& r, MessageBody& out) {
  Body body{};
  walk(r, body);
  out = std::move(body);
}

// Indexed by the header's type byte (= the MessageBody index).
using BodyReader = void (*)(Reader&, MessageBody&);

template <std::size_t... I>
constexpr std::array<BodyReader, sizeof...(I)> body_readers(
    std::index_sequence<I...>) {
  return {&read_body<std::variant_alternative_t<I, MessageBody>>...};
}

constexpr auto kBodyReaders =
    body_readers(std::make_index_sequence<kNumMessageTypes>{});

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
  return v;
}

}  // namespace

std::size_t id_wire_bytes(const IdParams& params) {
  return (params.num_digits * bits_per_digit(params) + 7) / 8;
}

std::size_t node_ref_wire_bytes(const IdParams& params) {
  return id_wire_bytes(params) + 6;  // IPv4 address + port
}

std::size_t snapshot_wire_bytes(const TableSnapshot& snap,
                                const IdParams& params) {
  const std::size_t bitmap_bytes = (bitmap_bits(params) + 7) / 8;
  return bitmap_bytes + snap.size() * (node_ref_wire_bytes(params) + 1);
}

std::size_t wire_size_bytes(const Message& msg, const IdParams& params) {
  return wire_size_bytes(msg.body, params);
}

std::size_t wire_size_bytes(const MessageBody& body, const IdParams& params) {
  const std::size_t ref = node_ref_wire_bytes(params);
  Sizer sizer{params, ref, kHeaderBytes + ref};  // envelope: sender ref
  std::visit([&](const auto& b) { walk(sizer, b); }, body);
  return sizer.bytes;
}

std::vector<std::uint8_t> encode_message(const Message& msg,
                                         const IdParams& params,
                                         const WireAddress& sender_addr) {
  const std::size_t size = wire_size_bytes(msg, params);
  std::vector<std::uint8_t> out;
  out.reserve(size);
  Writer w(out, params);

  for (std::uint8_t c : kMagic) w.u8(c);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type_of(msg.body)));
  w.u8(0);  // aux and flags: filled in by the body's fields
  w.u8(0);
  w.u32(msg.rel_seq);
  w.u32(msg.gen);
  w.zeros(kHeaderBytes - 16);

  w.node_ref(msg.sender, sender_addr);
  std::visit([&](const auto& body) { walk(w, body); }, msg.body);

  HCUBE_CHECK_MSG(out.size() == size, "codec and size model disagree");
  return out;
}

std::optional<Message> decode_message(const std::vector<std::uint8_t>& bytes,
                                      const IdParams& params) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return std::nullopt;
  if (bytes[4] != kVersion) return std::nullopt;
  const std::uint8_t type = bytes[kOffType];
  if (type >= kNumMessageTypes) return std::nullopt;

  Reader r(bytes, params);
  auto sender = r.node_ref();
  if (!sender) return std::nullopt;

  Message msg;
  msg.sender = std::move(*sender);
  msg.rel_seq = read_u32_at(bytes, kOffRelSeq);
  msg.gen = read_u32_at(bytes, kOffGen);
  kBodyReaders[type](r, msg.body);
  if (!r.ok()) return std::nullopt;
  if (r.pos() != bytes.size()) return std::nullopt;  // trailing garbage
  return msg;
}

}  // namespace hcube
