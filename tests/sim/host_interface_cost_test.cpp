// Cost model of the extended host interface (the paper's custom SG_IO
// commands): every command pays the flat per-command overhead, list-carrying
// commands additionally pay payload transfer at the configured bandwidth.
#include <gtest/gtest.h>

#include <vector>

#include "host/page_cache.h"
#include "sim/ssd.h"

namespace jitgc::sim {
namespace {

SsdConfig cost_config(TimeUs overhead_us, double payload_bps) {
  SsdConfig cfg;
  cfg.ftl.geometry = nand::Geometry{.channels = 2,
                                    .dies_per_channel = 2,
                                    .planes_per_die = 1,
                                    .blocks_per_plane = 16,
                                    .pages_per_block = 8,
                                    .page_size = 4 * KiB};
  cfg.ftl.op_ratio = 0.25;
  cfg.ftl.timing = nand::timing_20nm_mlc();
  cfg.host_command_overhead_us = overhead_us;
  cfg.command_payload_bps = payload_bps;
  return cfg;
}

TEST(HostInterfaceCost, QueryChargesConfiguredOverhead) {
  Ssd ssd(cost_config(/*overhead_us=*/250, /*payload_bps=*/500e6));
  TimeUs overhead = 0;
  ssd.query_free_capacity(overhead);
  EXPECT_EQ(overhead, 250u);
}

TEST(HostInterfaceCost, OverheadAccumulatesAcrossCommands) {
  Ssd ssd(cost_config(/*overhead_us=*/160, /*payload_bps=*/500e6));
  TimeUs overhead = 0;
  ssd.query_free_capacity(overhead);
  ssd.query_free_capacity(overhead);
  ssd.query_free_capacity(overhead);
  EXPECT_EQ(overhead, 3u * 160u);
}

/// A delta that adds the device's first 64 LBAs to an L_SIP of `sip_size`.
host::SipDelta first_64_added() {
  host::SipDelta delta;
  for (Lba i = 0; i < 64; ++i) delta.added.push_back(i);
  return delta;
}

TEST(HostInterfaceCost, SipListPaysOverheadPlusPayload) {
  // 100k entries x 4 B at 100 MB/s = 4000 us of transfer on top of the flat
  // command cost.
  Ssd ssd(cost_config(/*overhead_us=*/160, /*payload_bps=*/100e6));
  TimeUs overhead = 0;
  ssd.send_sip_update(first_64_added(), /*sip_size=*/100'000, overhead);
  EXPECT_EQ(overhead, 160u + 4000u);
}

TEST(HostInterfaceCost, PayloadScalesInverselyWithBandwidth) {
  TimeUs slow = 0;
  Ssd slow_ssd(cost_config(/*overhead_us=*/0, /*payload_bps=*/100e6));
  slow_ssd.send_sip_update(first_64_added(), /*sip_size=*/50'000, slow);

  TimeUs fast = 0;
  Ssd fast_ssd(cost_config(/*overhead_us=*/0, /*payload_bps=*/500e6));
  fast_ssd.send_sip_update(first_64_added(), /*sip_size=*/50'000, fast);

  EXPECT_EQ(slow, 2000u);  // 200 KB at 100 MB/s
  EXPECT_EQ(fast, 400u);   // 200 KB at 500 MB/s
}

TEST(HostInterfaceCost, EmptySipListStillPaysTheFlatCost) {
  Ssd ssd(cost_config(/*overhead_us=*/160, /*payload_bps=*/500e6));
  TimeUs overhead = 0;
  ssd.send_sip_update(host::SipDelta{}, /*sip_size=*/0, overhead);
  EXPECT_EQ(overhead, 160u);
}

TEST(HostInterfaceCost, SipUpdateShipsTheFullListSize) {
  // The delta encoding spares the device the O(|L_SIP|) rebuild, not the
  // wire transfer: the payload charge uses the full list length.
  Ssd ssd(cost_config(/*overhead_us=*/160, /*payload_bps=*/100e6));
  host::SipDelta delta;
  delta.added = {1, 2};
  TimeUs overhead = 0;
  ssd.send_sip_update(delta, /*sip_size=*/100'000, overhead);
  EXPECT_EQ(overhead, 160u + 4000u);
}

}  // namespace
}  // namespace jitgc::sim
