#include "net/loopback_transport.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/sim_transport.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;

Message ping(const NodeId& sender) { return Message{sender, PingMsg{}}; }

TEST(LoopbackTransport, DeliversAtCurrentTime) {
  EventQueue q;
  LoopbackTransport t(q, 2);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 1);
  std::vector<double> delivered_at;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  t.add_endpoint(
      [&](HostId, const Message&) { delivered_at.push_back(q.now()); });
  q.schedule_at(7.0, [&] { t.send(a, 1, ping(ids[0])); });
  q.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_DOUBLE_EQ(delivered_at[0], 7.0);  // zero latency, same instant
}

TEST(LoopbackTransport, DeliveryIsAsynchronous) {
  // Zero latency must not mean reentrant: a send from inside a handler is
  // delivered after the handler returns, through the event queue.
  EventQueue q;
  LoopbackTransport t(q, 2);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 2);
  std::vector<int> order;
  const HostId a = t.add_endpoint([&](HostId, const Message&) {
    order.push_back(2);  // reply arrives
  });
  const HostId b = t.add_endpoint([&](HostId from, const Message&) {
    order.push_back(0);
    t.send(1, from, ping(ids[1]));
    order.push_back(1);  // runs before the reply is handled
  });
  t.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(LoopbackTransport, PerPairFifo) {
  EventQueue q;
  LoopbackTransport t(q, 2);
  const IdParams params{16, 8};
  auto ids = make_ids(params, 20, 3);
  std::vector<NodeId> received;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint(
      [&](HostId, const Message& m) { received.push_back(m.sender); });
  for (int i = 0; i < 20; ++i) t.send(a, b, ping(ids[i]));
  q.run();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[i], ids[i]);
}

TEST(LoopbackTransport, InterleavedPairsEachStayFifo) {
  EventQueue q;
  LoopbackTransport t(q, 3);
  const IdParams params{16, 8};
  auto ids = make_ids(params, 40, 4);
  std::vector<NodeId> from_a, from_b;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([](HostId, const Message&) {});
  t.add_endpoint([&](HostId from, const Message& m) {
    (from == 0 ? from_a : from_b).push_back(m.sender);
  });
  for (int i = 0; i < 20; ++i) {
    t.send(a, 2, ping(ids[i]));
    t.send(b, 2, ping(ids[20 + i]));
  }
  q.run();
  ASSERT_EQ(from_a.size(), 20u);
  ASSERT_EQ(from_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(from_a[i], ids[i]);
    EXPECT_EQ(from_b[i], ids[20 + i]);
  }
}

TEST(SimTransport, DeliversWithModelLatencyAndFifo) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport t(q, latency);
  const IdParams params{16, 8};
  auto ids = make_ids(params, 20, 5);
  std::vector<std::pair<double, NodeId>> received;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([&](HostId, const Message& m) {
    received.push_back({q.now(), m.sender});
  });
  for (int i = 0; i < 20; ++i) t.send(a, b, ping(ids[i]));
  q.run();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(received[i].first, 10.0);
    EXPECT_EQ(received[i].second, ids[i]);
  }
  EXPECT_EQ(t.messages_sent(), 20u);
  EXPECT_EQ(t.messages_delivered(), 20u);
}

TEST(SimTransport, SelfSendDeliversAtSameTimeLater) {
  // Self-latency is zero, but the delivery still goes through the queue.
  EventQueue q;
  ConstantLatency latency(1, 9.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 10);
  bool delivered = false;
  const HostId a =
      t.add_endpoint([&](HostId, const Message&) { delivered = true; });
  t.send(a, a, ping(ids[0]));
  EXPECT_FALSE(delivered);
  q.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(PooledTransport, DropFilterAndOnSendHooks) {
  EventQueue q;
  LoopbackTransport t(q, 2);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 10, 6);
  int delivered = 0, observed = 0;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([&](HostId, const Message&) { ++delivered; });
  t.on_send = [&](HostId, HostId, const Message&) { ++observed; };
  int n = 0;
  t.drop_filter = [&n](HostId, HostId, const Message&) {
    return n++ % 2 == 0;
  };
  for (int i = 0; i < 10; ++i) t.send(a, b, ping(ids[i]));
  q.run();
  EXPECT_EQ(observed, 10);  // hook fires before drop filtering
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(t.messages_dropped(), 5u);
  EXPECT_EQ(t.messages_sent(), 5u);
}

TEST(PooledTransport, PayloadSlabIsRecycled) {
  EventQueue q;
  LoopbackTransport t(q, 2);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 7);
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([](HostId, const Message&) {});
  // Sequential sends: each delivery frees its slot before the next send, so
  // one slot serves the whole stream.
  for (int i = 0; i < 100; ++i) {
    t.send(a, b, ping(ids[0]));
    q.run();
  }
  EXPECT_EQ(t.payload_pool_size(), 1u);
  EXPECT_EQ(t.payload_pool_free(), 1u);
  // A burst of 10 in-flight messages grows the slab to 10 and no further.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) t.send(a, b, ping(ids[1]));
    q.run();
  }
  EXPECT_EQ(t.payload_pool_size(), 10u);
  EXPECT_EQ(t.payload_pool_free(), 10u);
}

TEST(OverlayOnLoopback, JoinWaveConvergesConsistently) {
  // The whole protocol runs over the zero-latency transport: every message
  // still goes through the queue (causality preserved), latencies are just
  // zero, so the network converges in simulated time 0.
  const IdParams params{4, 5};
  EventQueue queue;
  LoopbackTransport transport(queue, 24);
  Overlay overlay(params, {}, transport);
  auto ids = make_ids(params, 24, 8);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  build_consistent_network(overlay, v);
  Rng rng(9);
  const std::vector<NodeId> w(ids.begin() + 16, ids.end());
  join_concurrently(overlay, w, v, rng, /*window_ms=*/0.0);
  overlay.run_to_quiescence();

  EXPECT_TRUE(overlay.all_in_system());
  EXPECT_TRUE(check_consistency(view_of(overlay)).consistent());
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  EXPECT_EQ(transport.messages_delivered(), transport.messages_sent());
  EXPECT_EQ(transport.payload_pool_free(), transport.payload_pool_size());
}

TEST(OverlayOnLoopback, RunsAreDeterministic) {
  // All deliveries land at t=0; ordering rests entirely on the queue's
  // sequence-number tie-break, so two identical runs must match exactly.
  const IdParams params{4, 5};
  auto run_once = [&] {
    EventQueue queue;
    LoopbackTransport transport(queue, 20);
    Overlay overlay(params, {}, transport);
    auto ids = make_ids(params, 20, 12);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 12);
    build_consistent_network(overlay, v);
    Rng rng(13);
    const std::vector<NodeId> w(ids.begin() + 12, ids.end());
    join_concurrently(overlay, w, v, rng, /*window_ms=*/0.0);
    overlay.run_to_quiescence();
    EXPECT_TRUE(overlay.all_in_system());
    return std::pair{overlay.totals().messages, overlay.totals().bytes};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hcube
