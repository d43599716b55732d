// State-equality oracle for device aging (sim::age_device and Ftl::fill).
//
// The reference is the per-page preconditioning both simulators ran before
// the bulk fill existed: one Ftl::write per footprint LBA in order, then one
// Ftl::write per overwrite drawn from the same RNG, with the power cut
// counted write by write. Every case ages one
// device each way and byte-compares Ftl::save_state (NAND pages and OOB,
// map, free pool, streams, recency, fill stamps, SIP counts, checkpoint,
// stats), then runs Ftl::check_invariants on the aged device. The single-SSD
// and array cases compare whole devices after the simulators' own
// precondition step.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "array/array_simulator.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "ftl/ftl.h"
#include "sim/experiment.h"
#include "sim/run_harness.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace jitgc::sim {
namespace {

/// The per-page aging loops, as both simulators ran them.
void reference_age(ftl::Ftl& ftl, Lba footprint, Lba ws, Rng& rng,
                   std::uint64_t spo_after_writes) {
  std::uint64_t writes_until_spo = spo_after_writes;
  const auto count_write = [&] {
    if (writes_until_spo == 0 || --writes_until_spo > 0) return;
    ftl.sudden_power_off();
  };
  for (Lba lba = 0; lba < footprint; ++lba) {
    ftl.write(lba);
    count_write();
  }
  const auto overwrites =
      static_cast<std::uint64_t>(kPreconditionOverwriteFactor * static_cast<double>(ws));
  for (std::uint64_t i = 0; i < overwrites; ++i) {
    ftl.write(rng.uniform(ws));
    count_write();
  }
}

template <typename Device>
std::string state_of(const Device& device) {
  BinaryWriter w;
  device.save_state(w);
  return w.take();
}

/// Passes when the two serialized states are byte-identical; otherwise names
/// the first differing byte (printing whole states would drown the log).
::testing::AssertionResult same_state(const std::string& actual, const std::string& expected) {
  if (actual == expected) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) ++i;
  return ::testing::AssertionFailure() << "states differ at byte " << i << " of "
                                       << expected.size() << " (actual size " << actual.size()
                                       << ")";
}

// -- The FTL under every configuration that shapes aging ---------------------

struct AgeCase {
  std::string name;
  ftl::VictimPolicyKind victim = ftl::VictimPolicyKind::kGreedy;
  bool hot_cold = false;
  bool wear_level = false;
  std::uint32_t spare_blocks = 0;
  std::uint64_t checkpoint_every = 0;
  bool faults = false;
  /// Every 5th footprint LBA on the SIP list before aging.
  bool sip = false;
  /// Before aging: a wear history and scattered still-mapped LBAs.
  bool pre_worn = false;
  enum class Spo { kNone, kInFill, kInScramble } spo = Spo::kNone;
};

std::ostream& operator<<(std::ostream& out, const AgeCase& c) { return out << c.name; }

ftl::FtlConfig config_for(const AgeCase& c) {
  ftl::FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = 128,
                                .pages_per_block = 32,
                                .page_size = 4 * KiB};
  cfg.op_ratio = 0.10;
  cfg.victim_policy = c.victim;
  cfg.enable_hot_cold_separation = c.hot_cold;
  cfg.enable_static_wear_leveling = c.wear_level;
  cfg.wl_spread_threshold = 2;
  cfg.spare_blocks = c.spare_blocks;
  cfg.checkpoint_interval_erases = c.checkpoint_every;
  cfg.verify_victim_selection = true;
  if (c.faults) {
    cfg.fault.program_fail_prob = 0.001;
    cfg.fault.erase_fail_prob = 0.002;
    cfg.fault.seed = 11;
  }
  return cfg;
}

/// Identical history for both devices of a pre-worn case: half the LBAs
/// written once, a small hot range rewritten until its blocks are well
/// worn, then all but every 7th of those LBAs trimmed, so the free pool
/// holds worn blocks and the fill meets mapped LBAs.
void pre_wear(ftl::Ftl& ftl) {
  const Lba half = ftl.user_pages() / 2;
  const Lba hot = ftl.user_pages() / 16;
  for (Lba lba = 0; lba < half; ++lba) ftl.write(lba);
  for (int round = 0; round < 20; ++round) {
    for (Lba lba = 0; lba < hot; ++lba) ftl.write(lba);
  }
  for (Lba lba = 0; lba < half; ++lba) {
    if (lba % 7 != 0) ftl.trim(lba);
  }
}

class AgeDeviceFtl : public ::testing::TestWithParam<AgeCase> {};

TEST_P(AgeDeviceFtl, MatchesPerPageAgingByteForByte) {
  const AgeCase& c = GetParam();
  const ftl::FtlConfig cfg = config_for(c);
  ftl::Ftl aged(cfg);
  ftl::Ftl reference(cfg);
  const Lba footprint = aged.user_pages() - aged.user_pages() / 20;
  const Lba ws = aged.user_pages() / 2;
  std::uint64_t spo_after = 0;
  if (c.spo == AgeCase::Spo::kInFill) spo_after = footprint / 2 + 3;
  if (c.spo == AgeCase::Spo::kInScramble) spo_after = footprint + ws / 3;

  std::vector<Lba> sip_list;
  for (Lba lba = 0; lba < footprint; lba += 5) sip_list.push_back(lba);
  for (ftl::Ftl* f : {&aged, &reference}) {
    if (c.pre_worn) pre_wear(*f);
    if (c.sip) f->set_sip_list(sip_list);
  }
  const std::uint64_t moves_before = reference.stats().wear_level_moves;

  Rng rng_aged(42);
  Rng rng_reference(42);
  age_device(aged, footprint, ws, rng_aged, spo_after);
  reference_age(reference, footprint, ws, rng_reference, spo_after);

  EXPECT_TRUE(same_state(state_of(aged), state_of(reference)));
  EXPECT_EQ(rng_aged(), rng_reference()) << "the scramble drew a different number of LBAs";
  EXPECT_NO_THROW(aged.check_invariants());

  // Each case must reach what it claims to cover.
  if (c.wear_level) {
    EXPECT_GT(reference.stats().wear_level_moves, moves_before);
  }
  if (c.faults) {
    EXPECT_GT(reference.nand().stats().program_failures, 0U);
  }
  if (c.checkpoint_every > 0) {
    EXPECT_TRUE(reference.mapping_checkpoint().present);
  }
  if (c.hot_cold) {
    EXPECT_GT(reference.stats().hot_stream_writes, 0U);
  }
}

std::vector<AgeCase> age_cases() {
  using V = ftl::VictimPolicyKind;
  using S = AgeCase::Spo;
  return {
      {.name = "greedy"},
      {.name = "cost_benefit", .victim = V::kCostBenefit},
      {.name = "fifo", .victim = V::kFifo},
      {.name = "random", .victim = V::kRandom},
      {.name = "sampled_greedy", .victim = V::kSampledGreedy},
      {.name = "greedy_hot_cold", .hot_cold = true},
      {.name = "cost_benefit_hot_cold", .victim = V::kCostBenefit, .hot_cold = true},
      {.name = "greedy_pre_worn", .pre_worn = true},
      {.name = "greedy_hot_cold_pre_worn", .hot_cold = true, .pre_worn = true},
      {.name = "greedy_wear_level", .wear_level = true, .pre_worn = true},
      {.name = "cost_benefit_hot_cold_wear_level",
       .victim = V::kCostBenefit,
       .hot_cold = true,
       .wear_level = true,
       .pre_worn = true},
      {.name = "spare_blocks", .spare_blocks = 4},
      {.name = "checkpoints", .checkpoint_every = 4},
      {.name = "sip_list", .sip = true},
      {.name = "faults", .spare_blocks = 6, .faults = true},
      {.name = "spo_in_fill", .spo = S::kInFill},
      {.name = "spo_in_scramble", .spo = S::kInScramble},
      {.name = "spo_in_fill_hot_cold_checkpoints",
       .hot_cold = true,
       .checkpoint_every = 4,
       .spo = S::kInFill},
      {.name = "spo_in_scramble_wear_level",
       .wear_level = true,
       .pre_worn = true,
       .spo = S::kInScramble},
  };
}

INSTANTIATE_TEST_SUITE_P(Cases, AgeDeviceFtl, ::testing::ValuesIn(age_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(AgeDevice, FillOfAMidBlockRangeMatchesPerPageWrites) {
  for (const bool wear_level : {false, true}) {
    const ftl::FtlConfig cfg =
        config_for({.name = "fill", .wear_level = wear_level, .pre_worn = true});
    ftl::Ftl filled(cfg);
    ftl::Ftl reference(cfg);
    pre_wear(filled);
    pre_wear(reference);
    // An offset start and an end short of the device: runs begin and end
    // mid-block.
    const Lba first = 37;
    const Lba count = filled.user_pages() - first - 101;
    filled.fill(first, count);
    for (Lba lba = first; lba < first + count; ++lba) reference.write(lba);
    EXPECT_TRUE(same_state(state_of(filled), state_of(reference))) << "wear_level=" << wear_level;
    EXPECT_NO_THROW(filled.check_invariants());
  }
}

TEST(AgeDevice, FillRejectsARangeBeyondUserCapacity) {
  ftl::Ftl ftl(config_for({.name = "range"}));
  EXPECT_THROW(ftl.fill(1, ftl.user_pages()), std::logic_error);
  EXPECT_NO_THROW(ftl.fill(ftl.user_pages(), 0));
}

// -- check_invariants catches a planted bug ------------------------------------

TEST(FtlInvariants, CatchAPlantedMappingSwap) {
  ftl::Ftl ftl(config_for({.name = "planted"}));
  Rng rng(3);
  age_device(ftl, ftl.user_pages() - 50, ftl.user_pages() / 2, rng);
  ASSERT_NO_THROW(ftl.check_invariants());

  // The serialized L2P map follows the NAND state: a u64 entry count, then
  // (u32 block, u32 page) per LBA. Swapping two mapped LBAs' entries
  // restores cleanly (both entries name real pages) but leaves each LBA
  // pointing at a page whose OOB names the other.
  BinaryWriter nand_only;
  ftl.nand().save_state(nand_only);
  const std::size_t map_at = nand_only.take().size() + 8;
  std::string blob = state_of(ftl);
  ASSERT_TRUE(ftl.is_mapped(10) && ftl.is_mapped(20));
  for (std::size_t k = 0; k < 8; ++k) {
    std::swap(blob[map_at + 8 * 10 + k], blob[map_at + 8 * 20 + k]);
  }

  ftl::Ftl doctored(config_for({.name = "planted"}));
  BinaryReader r(blob);
  doctored.restore_state(r);
  EXPECT_EQ(doctored.mapping(10), ftl.mapping(20));
  try {
    doctored.check_invariants();
    ADD_FAILURE() << "a swapped L2P pair passed the invariant check";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("OOB names another LBA"), std::string::npos) << e.what();
  }
}

// -- The simulators' precondition steps ----------------------------------------

/// Carries only the footprint and working set preconditioning reads; the
/// measured run's first next() stops the run with the devices exactly as
/// preconditioning left them.
class AgingOnly final : public wl::WorkloadGenerator {
 public:
  struct Stop {};
  AgingOnly(Lba footprint, Lba ws) : footprint_(footprint), ws_(ws) {}
  std::string name() const override { return "aging-only"; }
  std::optional<wl::AppOp> next() override { throw Stop{}; }
  Lba footprint_pages() const override { return footprint_; }
  Lba working_set_pages() const override { return ws_; }

 private:
  Lba footprint_;
  Lba ws_;
};

/// Where the single-SSD case cuts power while aging.
enum class Cut { kNone, kInFill, kInScramble };

std::string cut_name(const ::testing::TestParamInfo<Cut>& info) {
  switch (info.param) {
    case Cut::kNone: return "no_cut";
    case Cut::kInFill: return "cut_in_fill";
    case Cut::kInScramble: return "cut_in_scramble";
  }
  return "unknown";
}

class AgeDeviceSimulator : public ::testing::TestWithParam<Cut> {};

TEST_P(AgeDeviceSimulator, PreconditionMatchesPerPageAging) {
  SimConfig config = default_sim_config(1);
  const Lba user = ftl::Ftl::user_pages_for(config.ssd.ftl);
  const Lba footprint = user - user / 10;
  const Lba ws = user / 3;
  if (GetParam() == Cut::kInFill) config.spo_precondition_after_writes = footprint / 2 + 5;
  if (GetParam() == Cut::kInScramble) config.spo_precondition_after_writes = footprint + ws / 2;

  Simulator simulator(config);
  AgingOnly workload(footprint, ws);
  const auto policy = make_policy(PolicyKind::kJit, config);
  EXPECT_THROW(simulator.run(workload, *policy), AgingOnly::Stop);

  Ssd reference(config.ssd);
  // The simulator sets the policy's SIP filter before aging; with the filter
  // on, victim selections visit the adjusted buckets too.
  reference.set_sip_filter_enabled(policy->wants_sip_filter());
  Rng rng(config.seed ^ 0xA6E5C0DE);
  reference_age(reference.mutable_ftl(), footprint, ws, rng, config.spo_precondition_after_writes);
  EXPECT_TRUE(same_state(state_of(simulator.ssd()), state_of(reference)));
  EXPECT_NO_THROW(simulator.ssd().ftl().check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Cuts, AgeDeviceSimulator,
                         ::testing::Values(Cut::kNone, Cut::kInFill, Cut::kInScramble), cut_name);

class AgeDeviceArray : public ::testing::TestWithParam<array::RedundancyScheme> {};

TEST_P(AgeDeviceArray, EverySlotMatchesPerPageAging) {
  array::ArraySimConfig config;
  config.ssd.ftl.geometry = nand::Geometry{.channels = 2,
                                           .dies_per_channel = 2,
                                           .planes_per_die = 1,
                                           .blocks_per_plane = 64,
                                           .pages_per_block = 32,
                                           .page_size = 4 * KiB};
  config.array.devices = 4;
  config.array.redundancy = GetParam();
  config.array.spare_devices = 1;
  config.seed = 5;
  config.step_threads = 2;

  array::ArraySimulator simulator(config);
  const Lba user = simulator.ssd_array().user_pages();
  const Lba footprint = user - user / 10;
  const Lba ws = user / 3;
  AgingOnly workload(footprint, ws);
  EXPECT_THROW(simulator.run(workload), AgingOnly::Stop);

  // The reference replays the per-slot aging on a fresh array: the same
  // layout share and per-slot seed, then the same rest step.
  array::SsdArray reference(config.ssd, config.array, config.seed);
  const array::RedundancyLayout& layout = reference.layout();
  for (std::uint32_t slot = 0; slot < reference.device_count(); ++slot) {
    ftl::Ftl& ftl = reference.device_at_slot(slot).mutable_ftl();
    Rng rng(derive_seed(config.seed ^ 0xA6E5C0DE, slot));
    reference_age(ftl, layout.fill_pages_on_slot(footprint, slot),
                  layout.fill_pages_on_slot(ws, slot), rng, 0);
    const Bytes free_now = ftl.free_bytes_for_writes();
    if (free_now < ftl.op_capacity()) {
      ftl.background_reclaim((ftl.op_capacity() - free_now) / ftl.page_size());
    }
  }
  ASSERT_EQ(simulator.ssd_array().total_device_count(), reference.total_device_count());
  for (std::uint32_t d = 0; d < reference.total_device_count(); ++d) {
    EXPECT_TRUE(same_state(state_of(simulator.ssd_array().device(d)),
                           state_of(reference.device(d))))
        << "device " << d;
    EXPECT_NO_THROW(simulator.ssd_array().device(d).ftl().check_invariants()) << "device " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, AgeDeviceArray,
                         ::testing::Values(array::RedundancyScheme::kNone,
                                           array::RedundancyScheme::kMirror,
                                           array::RedundancyScheme::kParity),
                         [](const auto& info) {
                           switch (info.param) {
                             case array::RedundancyScheme::kNone: return std::string("none");
                             case array::RedundancyScheme::kMirror: return std::string("mirror");
                             case array::RedundancyScheme::kParity: return std::string("parity");
                           }
                           return std::string("unknown");
                         });

}  // namespace
}  // namespace jitgc::sim
