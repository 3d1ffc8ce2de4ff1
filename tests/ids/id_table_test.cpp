// The interner behind NodeId: canonical dense refs, exact round-trips over
// the whole IdParams envelope, and handle stability across the churn
// pattern the overlay leans on (crash -> restart -> rejoin re-interns the
// same digit string and must get the same handle back).
#include "ids/id_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "ids/node_id.h"
#include "util/rng.h"

namespace hcube {
namespace {

// The interner is a process-global singleton shared by every test in this
// binary, so assertions are phrased relative to its state at test entry
// (size deltas, not absolute sizes).

TEST(IdTable, RoundTripAcrossIdParamsShapes) {
  // The corners and interiors of the supported envelope: base in [2, 256],
  // num_digits in [1, 64]. 16x8 and 16x40 are the paper's experiment
  // shapes.
  const IdParams shapes[] = {{2, 1},  {2, 64},  {4, 5},   {16, 8},
                             {16, 40}, {36, 12}, {256, 4}, {256, 64}};
  Rng rng(0xed1e5);
  for (const IdParams& params : shapes) {
    params.validate();
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Digit> digits(params.num_digits);
      for (Digit& d : digits)
        d = static_cast<Digit>(rng.next_below(params.base));
      const NodeId id(digits, params);
      ASSERT_TRUE(id.is_valid());
      ASSERT_EQ(id.num_digits(), params.num_digits);
      for (std::size_t i = 0; i < digits.size(); ++i)
        ASSERT_EQ(id.digit(i), digits[i]) << "shape " << params.base << "x"
                                          << params.num_digits;
      // String round-trip goes through the interner twice and must land on
      // the same canonical handle.
      const auto parsed = NodeId::from_string(id.to_string(params), params);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_EQ(parsed->ref(), id.ref());
    }
  }
}

TEST(IdTable, InterningIsCanonicalAndDense) {
  IdTable& table = IdTable::instance();
  const IdParams params{16, 8};
  const std::size_t before = table.size();
  UniqueIdGenerator gen(params, 0xabcdeULL);

  std::vector<NodeId> ids;
  for (int i = 0; i < 2000; ++i) ids.push_back(gen.next());

  // Distinct digit strings -> distinct refs (no collisions under churn),
  // every ref below the current table size (dense, first-intern order).
  std::vector<bool> seen(table.size(), false);
  for (const NodeId& id : ids) {
    ASSERT_LT(id.ref(), table.size());
    ASSERT_FALSE(seen[id.ref()]) << "two distinct strings shared a ref";
    seen[id.ref()] = true;
  }
  // The generator interned exactly its output (UniqueIdGenerator dedups
  // by ref, so retries re-intern existing strings without growing).
  EXPECT_GE(table.size(), before + ids.size());

  // Re-interning every string is a no-op returning the canonical handle.
  const std::size_t after = table.size();
  for (const NodeId& id : ids) {
    const std::vector<Digit> digits(id.digits().begin(), id.digits().end());
    const NodeId again(digits, params);
    EXPECT_EQ(again.ref(), id.ref());
  }
  EXPECT_EQ(table.size(), after);
}

TEST(IdTable, ChurnRestartRejoinReusesHandles) {
  // The overlay's crash -> restart -> rejoin loop destroys every NodeId a
  // node held and rebuilds them from the wire or from persisted digit
  // strings. Handles must come back identical, or the dense registries
  // (Overlay's HostId vector, FlatNodeSet slots) would grow without bound
  // across churn.
  IdTable& table = IdTable::instance();
  const IdParams params{16, 8};
  UniqueIdGenerator gen(params, 0x5eedULL);

  std::vector<std::vector<Digit>> strings;
  std::vector<IdTable::Ref> first_refs;
  for (int i = 0; i < 500; ++i) {
    const NodeId id = gen.next();
    strings.emplace_back(id.digits().begin(), id.digits().end());
    first_refs.push_back(id.ref());
  }
  const std::size_t size_after_first_life = table.size();
  const std::size_t bytes_after_first_life = table.bytes_used();

  for (int round = 0; round < 3; ++round) {  // three crash/rejoin cycles
    for (std::size_t i = 0; i < strings.size(); ++i) {
      const NodeId reborn(strings[i], params);
      ASSERT_EQ(reborn.ref(), first_refs[i]) << "round " << round;
    }
  }
  // No growth: neither entries nor slab bytes.
  EXPECT_EQ(table.size(), size_after_first_life);
  EXPECT_EQ(table.bytes_used(), bytes_after_first_life);
}

TEST(IdTable, HandleShapeIsFixed) {
  static_assert(sizeof(NodeId) == 8);
  static_assert(std::is_trivially_copyable_v<NodeId>);
  // Equality is a ref compare; ordering matches the digit strings.
  const IdParams params{4, 5};
  const NodeId a = NodeId::from_string("21233", params).value();
  const NodeId b = NodeId::from_string("21233", params).value();
  const NodeId c = NodeId::from_string("21230", params).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ref(), b.ref());
  EXPECT_NE(a, c);
  EXPECT_EQ(a.csuf_len(b), 5u);
}

TEST(IdTable, RefBoundIsTheLevelCapacity) {
  // 22 levels of 2^(10 + l) records: 2^32 - 2^10 refs, all below the
  // invalid sentinel.
  static_assert(IdTable::kMaxRefs == 4294966272ull);
  static_assert(IdTable::kMaxRefs <= IdTable::kInvalidRef);
  EXPECT_EQ(IdTable::kMaxRefs, (1ull << 32) - (1ull << 10));
}

}  // namespace
}  // namespace hcube
