#include "ftl/ftl.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/ensure.h"
#include "common/logging.h"

namespace jitgc::ftl {

/// Weight of a SIP page in victim scoring. A soon-to-be-invalidated page
/// migrated now is pure waste, so each one counts as this many extra valid
/// pages against the candidate — steering GC away from SIP-heavy blocks
/// without hard-banning them (the paper: "tends to avoid" such blocks).
constexpr double kSipPenalty = 2.0;

Ftl::Ftl(const FtlConfig& config)
    : config_(config),
      nand_(config.geometry, config.timing, config.fault),
      codec_(config.geometry),
      policy_(make_victim_policy(config.victim_policy)),
      index_(nand_.num_blocks(), config.geometry.pages_per_block,
             // Skip maintaining order sets this configuration can never
             // query: by_recency feeds only cost-benefit, by_fill only FIFO.
             VictimIndex::Needs{
                 .by_recency = config.victim_policy == VictimPolicyKind::kCostBenefit,
                 .by_fill = config.victim_policy == VictimPolicyKind::kFifo}) {
  JITGC_ENSURE_MSG(config_.min_free_blocks >= 1, "GC needs at least one reserved free block");
  JITGC_ENSURE_MSG(config_.op_ratio > 0.0, "over-provisioning ratio must be positive");

  const std::uint64_t total = config_.geometry.total_pages();
  user_pages_ = user_pages_for(config_);
  op_pages_ = total - user_pages_;
  const std::uint64_t spare_pages =
      static_cast<std::uint64_t>(config_.spare_blocks) * config_.geometry.pages_per_block;
  JITGC_ENSURE_MSG(op_pages_ >= spare_pages + static_cast<std::uint64_t>(config_.min_free_blocks) *
                                                  config_.geometry.pages_per_block,
                   "OP space smaller than the GC headroom plus the spare pool");

  map_.assign(user_pages_, kNoPpa);
  sip_ = SipIndex(user_pages_);
  block_last_update_seq_.assign(nand_.num_blocks(), 0);
  block_fill_seq_.assign(nand_.num_blocks(), 0);
  block_sip_count_.assign(nand_.num_blocks(), 0);
  index_dirty_.assign(nand_.num_blocks(), 0);
  wl_dirty_.assign(nand_.num_blocks(), 0);
  block_health_.assign(nand_.num_blocks(), BlockHealth::kGood);
  if (config_.enable_hot_cold_separation) {
    lba_last_write_seq_.assign(user_pages_, 0);
    hot_window_ = config_.hot_recency_window ? config_.hot_recency_window : user_pages_ / 8;
  }
  // Spares come off the top of the block range and stay out of the free
  // pool (and out of free_pages_) until a retirement promotes them.
  const std::uint32_t first_spare = nand_.num_blocks() - config_.spare_blocks;
  for (std::uint32_t b = 0; b < nand_.num_blocks(); ++b) {
    if (b >= first_spare) {
      spare_pool_.push_back(b);
    } else {
      free_pool_.emplace(0, b);
    }
  }
  free_pages_ = total - spare_pages;
  offline_pages_ = spare_pages;
}

std::uint64_t Ftl::free_pages_for_writes() const {
  const std::uint64_t reserve =
      static_cast<std::uint64_t>(config_.min_free_blocks) * config_.geometry.pages_per_block;
  return free_pages_ > reserve ? free_pages_ - reserve : 0;
}

bool Ftl::is_mapped(Lba lba) const {
  JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
  return map_[lba] != kNoPpa;
}

double Ftl::waf() const {
  if (stats_.host_pages_written == 0) return 1.0;
  return static_cast<double>(nand_.stats().page_programs) /
         static_cast<double>(stats_.host_pages_written);
}

void Ftl::touch_block(std::uint32_t block_id) { block_last_update_seq_[block_id] = write_seq_; }

std::uint32_t Ftl::adjusted_valid(std::uint32_t valid, std::uint32_t sip) const {
  if (sip == 0) return valid;
  const double extra = kSipPenalty * static_cast<double>(sip);
  return static_cast<std::uint32_t>(
      std::min<double>(config_.geometry.pages_per_block, valid + extra));
}

void Ftl::refresh_block_index(std::uint32_t block_id) {
  if (!index_dirty_[block_id]) {
    index_dirty_[block_id] = 1;
    index_dirty_list_.push_back(block_id);
  }
  if (!wl_dirty_[block_id]) {
    wl_dirty_[block_id] = 1;
    wl_dirty_list_.push_back(block_id);
  }
}

void Ftl::flush_victim_index() const {
  // Each dirty block's state is computed from current truth, so the settled
  // index is exactly what immediate re-declaration would have produced —
  // update order within the batch cannot matter. declare_block_index settles the
  // wear-level shadow too, so the blocks' pending wl_dirty_ entries (cleared
  // only by flush_victim_index_wl) become no-ops.
  for (const std::uint32_t b : index_dirty_list_) {
    index_dirty_[b] = 0;
    declare_block_index(b);
  }
  index_dirty_list_.clear();
}

void Ftl::flush_victim_index_wl() const {
  for (const std::uint32_t b : wl_dirty_list_) {
    wl_dirty_[b] = 0;
    const nand::Block& blk = nand_.block(b);
    const bool wl_candidate = block_health_[b] == BlockHealth::kGood && blk.is_full() &&
                              blk.valid_count() == config_.geometry.pages_per_block;
    index_.update_wl(b, wl_candidate, blk.erase_count());
  }
  wl_dirty_list_.clear();
}

void Ftl::declare_block_index(std::uint32_t block_id) const {
  const nand::Block& blk = nand_.block(block_id);
  const bool full = blk.is_full();
  // Non-good blocks are out of the GC/WL economy: never victims, never
  // wear-leveling sources.
  const bool good = block_health_[block_id] == BlockHealth::kGood;
  VictimIndex::BlockState s;
  s.valid = blk.valid_count();
  s.candidate = good && full && blk.invalid_count() > 0;
  s.wl_candidate = good && full && s.valid == config_.geometry.pages_per_block;
  s.adjusted_valid = adjusted_valid(s.valid, block_sip_count_[block_id]);
  s.last_update_seq = block_last_update_seq_[block_id];
  s.fill_seq = block_fill_seq_[block_id];
  s.erase_count = blk.erase_count();
  index_.update(block_id, s);
  index_.update_wl(block_id, s.wl_candidate, s.erase_count);
}

void Ftl::move_sip_count(Lba lba, std::uint32_t from, std::uint32_t to) {
  if (!sip_.contains(lba)) return;
  JITGC_ENSURE(block_sip_count_[from] > 0);
  --block_sip_count_[from];
  ++block_sip_count_[to];
}

void Ftl::note_program(std::uint32_t block_id) {
  touch_block(block_id);
  if (nand_.block(block_id).is_full()) block_fill_seq_[block_id] = write_seq_;
}

bool Ftl::finish_erase(std::uint32_t block_id) {
  // Every valid page was migrated away first, so no SIP LBA can still map
  // here.
  JITGC_ENSURE(block_sip_count_[block_id] == 0);
  const nand::NandStatus st = nand_.erase_block(block_id);
  bool usable = true;
  const std::uint32_t ppb = config_.geometry.pages_per_block;
  if (st == nand::NandStatus::kEraseFail) {
    // Bad-block management: an erase failure retires the block on the spot.
    // Its stale pages are stuck forever — off the reclaimable books.
    degrade_events_.push_back({DegradeEvent::Kind::kEraseFail, block_id,
                               nand_.block(block_id).erase_count(), write_seq_});
    offline_pages_ += ppb;
    retire_block(block_id);
    usable = false;
  } else {
    const std::uint64_t limit =
        config_.enforce_endurance ? config_.timing.endurance_pe_cycles : 0;
    if (limit != 0 && nand_.block(block_id).erase_count() >= limit) {
      // The block has consumed its rated P/E cycles: it still erased fine,
      // but is no longer trusted with data.
      offline_pages_ += ppb;
      retire_block(block_id);
      usable = false;
    } else {
      release_to_free_pool(block_id);
      free_pages_ += ppb;
    }
  }
  refresh_block_index(block_id);
  note_erase_for_checkpoint();
  return usable;
}

void Ftl::note_erase_for_checkpoint() {
  if (config_.checkpoint_interval_erases == 0) return;
  if (++erases_since_checkpoint_ < config_.checkpoint_interval_erases) return;
  erases_since_checkpoint_ = 0;
  RecoveryEngine::write_checkpoint(*this);
}

void Ftl::enter_read_only() {
  if (read_only_) return;
  read_only_ = true;
  degrade_events_.push_back({DegradeEvent::Kind::kReadOnly, 0, 0, write_seq_});
}

void Ftl::invalidate_page_at(const nand::Ppa& ppa) {
  nand_.invalidate_page(ppa);
  // A page invalidated on a dying block will never be erased back to free.
  if (block_health_[ppa.block] != BlockHealth::kGood) ++offline_pages_;
}

void Ftl::mark_grown_bad(std::uint32_t block) {
  JITGC_ENSURE(block_health_[block] == BlockHealth::kGood);
  block_health_[block] = BlockHealth::kGrownBad;
  ++stats_.grown_bad_blocks;
  const nand::Block& blk = nand_.block(block);
  // Unprogrammed pages will never be used: write them off now. Valid pages
  // stay on the books until retirement migrates them out.
  const std::uint64_t dead_free = blk.free_count();
  JITGC_ENSURE(free_pages_ >= dead_free);
  free_pages_ -= dead_free;
  offline_pages_ += dead_free + blk.invalid_count();
  pending_retire_.push_back(block);
  refresh_block_index(block);
}

void Ftl::retire_block(std::uint32_t block) {
  block_health_[block] = BlockHealth::kRetired;
  ++stats_.retired_blocks;
  degrade_events_.push_back({DegradeEvent::Kind::kBlockRetired, block,
                             nand_.block(block).erase_count(), write_seq_});
  if (!spare_pool_.empty()) {
    const std::uint32_t spare = spare_pool_.back();
    spare_pool_.pop_back();
    ++stats_.spares_promoted;
    release_to_free_pool(spare);
    const std::uint32_t ppb = config_.geometry.pages_per_block;
    free_pages_ += ppb;
    JITGC_ENSURE(offline_pages_ >= ppb);
    offline_pages_ -= ppb;
    degrade_events_.push_back({DegradeEvent::Kind::kSparePromoted, spare,
                               nand_.block(spare).erase_count(), write_seq_});
    refresh_block_index(spare);
  }
}

std::uint32_t Ftl::program_with_retry(std::uint32_t& active, Lba lba, bool is_migration,
                                      TimeUs& cost, std::uint64_t stamp) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    const nand::ProgramResult r = nand_.program_page(active, lba, is_migration, write_seq_, stamp);
    if (r.ok()) return r.ppa.page;
    // The failed pulse burned a page and condemned the block: a program
    // failure is how grown-bad blocks announce themselves. Charge the
    // wasted pulse and retry on a fresh block.
    cost += is_migration ? config_.timing.migrate_cost() : config_.timing.program_cost();
    JITGC_ENSURE(free_pages_ > 0);
    --free_pages_;
    degrade_events_.push_back({DegradeEvent::Kind::kProgramFail, active,
                               nand_.block(active).erase_count(), write_seq_});
    mark_grown_bad(active);
    if (attempt >= kProgramRetryLimit) {
      enter_read_only();
      throw DeviceWornOut("jitgc::ftl: program retries exhausted across fresh blocks");
    }
    active = allocate_free_block();
  }
}

void Ftl::migrate_page(std::uint32_t src_block, std::uint32_t page, std::uint32_t& dest,
                       TimeUs& cost) {
  const nand::Block& src = nand_.block(src_block);
  const Lba lba = src.page_lba(page);
  JITGC_ENSURE_MSG(map_[lba] == codec_.pack(nand::Ppa{src_block, page}),
                   "mapping/OOB disagreement");
  ++write_seq_;
  // Program-first so a failed copy cannot lose the page (see write()).
  const std::uint32_t dst_page =
      program_with_retry(dest, lba, /*is_migration=*/true, cost, src.page_stamp(page));
  invalidate_page_at(nand::Ppa{src_block, page});
  map_[lba] = codec_.pack(nand::Ppa{dest, dst_page});
  // A migration consumes a free page; erasing the source returns them.
  JITGC_ENSURE(free_pages_ > 0);
  --free_pages_;
  move_sip_count(lba, src_block, dest);
  cost += config_.timing.migrate_cost();
}

TimeUs Ftl::retire_grown_bad(std::uint32_t block) {
  TimeUs cost = 0;
  const nand::Block& blk = nand_.block(block);
  const std::uint32_t ppb = config_.geometry.pages_per_block;
  for (std::uint32_t p = 0; p < ppb; ++p) {
    if (blk.page_state(p) != nand::PageState::kValid) continue;
    ensure_gc_active_block();
    migrate_page(block, p, gc_active_, cost);
    note_program(gc_active_);
  }
  if (gc_active_ != kNoBlock) refresh_block_index(gc_active_);
  JITGC_ENSURE(block_sip_count_[block] == 0);
  retire_block(block);
  refresh_block_index(block);
  return cost;
}

TimeUs Ftl::process_pending_retirements() {
  TimeUs cost = 0;
  while (!pending_retire_.empty()) {
    const std::uint32_t block = pending_retire_.front();
    pending_retire_.erase(pending_retire_.begin());
    cost += retire_grown_bad(block);
  }
  return cost;
}

std::uint32_t Ftl::allocate_free_block() {
  if (free_pool_.empty() && degraded_mode_possible()) {
    enter_read_only();
    throw DeviceWornOut("jitgc::ftl: free pool exhausted after block retirements");
  }
  JITGC_ENSURE_MSG(!free_pool_.empty(), "free pool exhausted");
  const auto it = free_pool_.begin();  // least-worn first: dynamic wear leveling
  const std::uint32_t id = it->second;
  free_pool_.erase(it);
  return id;
}

void Ftl::release_to_free_pool(std::uint32_t block_id) {
  free_pool_.emplace(nand_.block(block_id).erase_count(), block_id);
}

void Ftl::ensure_gc_active_block() {
  if (gc_active_ != kNoBlock && !nand_.block(gc_active_).is_full()) return;
  // The outgoing (filled) GC block may have pending migrations the batched
  // refresh at the end of the collection loop would miss.
  if (gc_active_ != kNoBlock) refresh_block_index(gc_active_);
  // The min_free_blocks watermark guarantees this allocation succeeds.
  gc_active_ = allocate_free_block();
}

TimeUs Ftl::write(Lba lba) {
  JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
  if (read_only_) {
    throw DeviceWornOut("jitgc::ftl: device is read-only (spares exhausted)");
  }

  bool hot = true;
  if (config_.enable_hot_cold_separation) {
    hot = is_hot(lba, write_seq_);
    lba_last_write_seq_[lba] = write_seq_ + 1;
    if (hot) ++stats_.hot_stream_writes;
  }
  std::uint32_t& active = (config_.enable_hot_cold_separation && !hot)
                              ? user_active_cold_
                              : user_active_;
  TimeUs cost = 0;
  if (active == kNoBlock || nand_.block(active).is_full()) {
    if (free_pool_.size() <= config_.min_free_blocks) cost += foreground_collect();
    active = allocate_free_block();
  }

  ++write_seq_;

  const bool lba_on_sip = !sip_.empty() && sip_.contains(lba);

  // fill_run() below mirrors this bookkeeping for a run of unmapped LBAs.
  // Out-place update, new copy first: until the program sticks, the old
  // mapping stays valid, so an injected program failure cannot lose the LBA.
  // (With faults off this is state-equivalent to invalidate-first.)
  // A host write's content stamp is its write sequence number — the
  // host-write identity migrations will carry along unchanged.
  const std::uint32_t new_page =
      program_with_retry(active, lba, /*is_migration=*/false, cost, write_seq_);
  note_program(active);
  JITGC_ENSURE(free_pages_ > 0);
  --free_pages_;

  std::uint32_t& entry = map_[lba];
  if (entry != kNoPpa) {
    const nand::Ppa old = codec_.unpack(entry);
    const std::uint32_t prev = old.block;
    invalidate_page_at(old);
    touch_block(prev);
    if (lba_on_sip) {
      JITGC_ENSURE(block_sip_count_[prev] > 0);
      --block_sip_count_[prev];
    }
    --valid_pages_;
    refresh_block_index(prev);
  }

  entry = codec_.pack(nand::Ppa{active, new_page});
  if (lba_on_sip) ++block_sip_count_[active];
  ++valid_pages_;
  refresh_block_index(active);

  ++stats_.host_pages_written;
  cost += config_.timing.program_cost();
  cost += maybe_static_wear_level();
  cost += process_pending_retirements();
  return cost;
}

void Ftl::fill(Lba first, Lba count) {
  JITGC_ENSURE_MSG(first <= user_pages_ && count <= user_pages_ - first,
                   "fill beyond user capacity");
  const Lba end = first + count;
  // A run may start only right after a write() that drew no fault decision
  // and made no wear-leveling move. The run then changes nothing but its own
  // open block, which the wear-leveling spread check excludes, so the check
  // write() would run after each page of the run finds what it found after
  // that write: nothing to move.
  bool run_ok = false;
  Lba lba = first;
  while (lba < end) {
    if (run_ok) {
      run_ok = false;
      const Lba n = fill_run(lba, end);
      if (n > 0) {
        lba += n;
        continue;
      }
    }
    const std::uint64_t moves = stats_.wear_level_moves;
    write(lba++);
    run_ok = !config_.fault.enabled() && stats_.wear_level_moves == moves;
  }
}

Lba Ftl::fill_run(Lba lba, Lba end) {
  // write() puts an unmapped LBA on the cold stream under hot/cold
  // separation unless its recency calls it hot; runs keep to cold LBAs.
  const bool separate = config_.enable_hot_cold_separation;
  const std::uint32_t active = separate ? user_active_cold_ : user_active_;
  if (active == kNoBlock) return 0;
  const Lba room = std::min<Lba>(nand_.block(active).free_count(), end - lba);
  Lba n = 0;
  for (; n < room; ++n) {
    if (map_[lba + n] != kNoPpa) break;
    if (separate && is_hot(lba + n, write_seq_ + n)) break;
  }
  if (n == 0) return 0;

  const std::uint64_t first_seq = write_seq_ + 1;
  const std::uint32_t first_page =
      nand_.program_run(active, lba, static_cast<std::uint32_t>(n), first_seq);
  const bool any_sip = !sip_.empty();
  for (Lba i = 0; i < n; ++i) {
    map_[lba + i] = codec_.pack(nand::Ppa{active, first_page + static_cast<std::uint32_t>(i)});
    if (any_sip && sip_.contains(lba + i)) ++block_sip_count_[active];
    if (separate) lba_last_write_seq_[lba + i] = first_seq + i;
  }
  write_seq_ += n;
  note_program(active);
  JITGC_ENSURE(free_pages_ >= n);
  free_pages_ -= n;
  valid_pages_ += n;
  stats_.host_pages_written += n;
  refresh_block_index(active);
  return n;
}

TimeUs Ftl::read(Lba lba) const {
  JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
  const std::uint32_t entry = map_[lba];
  auto& self = const_cast<Ftl&>(*this);
  ++self.stats_.host_pages_read;
  if (entry == kNoPpa) return config_.timing.page_transfer_us;
  const Lba stored = self.nand_.read_page(codec_.unpack(entry));
  JITGC_ENSURE_MSG(stored == lba, "mapping/OOB disagreement");
  return config_.timing.read_cost();
}

void Ftl::trim(Lba lba) {
  JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
  std::uint32_t& entry = map_[lba];
  if (entry == kNoPpa) return;
  const nand::Ppa old = codec_.unpack(entry);
  const std::uint32_t prev = old.block;
  ++write_seq_;
  invalidate_page_at(old);
  touch_block(prev);
  if (sip_.contains(lba)) {
    JITGC_ENSURE(block_sip_count_[prev] > 0);
    --block_sip_count_[prev];
  }
  --valid_pages_;
  entry = kNoPpa;
  ++stats_.trims;
  refresh_block_index(prev);
}

void Ftl::set_sip_list(const std::vector<Lba>& lbas) {
  sip_.assign(lbas);
  std::fill(block_sip_count_.begin(), block_sip_count_.end(), 0);
  // Counts follow set membership (a duplicated input LBA counts once), so
  // they are rebuilt from the deduplicated index.
  for (const Lba lba : sip_.sorted()) {
    if (lba >= user_pages_) continue;
    const std::uint32_t entry = map_[lba];
    if (entry != kNoPpa) ++block_sip_count_[codec_.block(entry)];
  }
  // Full resync can change any block's SIP count (and thus its adjusted
  // bucket) — re-declare everything. O(num_blocks); the hot path uses
  // apply_sip_delta instead.
  for (std::uint32_t b = 0; b < nand_.num_blocks(); ++b) refresh_block_index(b);
}

void Ftl::apply_sip_delta(const std::vector<Lba>& added, const std::vector<Lba>& removed) {
  for (const Lba lba : removed) {
    if (!sip_.erase(lba)) continue;
    if (lba >= user_pages_) continue;
    const std::uint32_t entry = map_[lba];
    if (entry == kNoPpa) continue;
    const std::uint32_t block = codec_.block(entry);
    JITGC_ENSURE(block_sip_count_[block] > 0);
    --block_sip_count_[block];
    refresh_block_index(block);
  }
  for (const Lba lba : added) {
    if (!sip_.insert(lba)) continue;
    if (lba >= user_pages_) continue;
    const std::uint32_t entry = map_[lba];
    if (entry == kNoPpa) continue;
    const std::uint32_t block = codec_.block(entry);
    ++block_sip_count_[block];
    refresh_block_index(block);
  }
}

Ftl::VictimChoice Ftl::select_victim_reference() const {
  double best_raw = std::numeric_limits<double>::infinity();
  std::uint32_t best_raw_block = kNoBlock;
  double best_adj = std::numeric_limits<double>::infinity();
  std::uint32_t best_adj_block = kNoBlock;

  const std::uint32_t ppb = config_.geometry.pages_per_block;
  for (std::uint32_t b = 0; b < nand_.num_blocks(); ++b) {
    if (b == user_active_ || b == user_active_cold_ || b == gc_active_) continue;
    if (block_health_[b] != BlockHealth::kGood) continue;
    const nand::Block& blk = nand_.block(b);
    // Victims are fully-programmed blocks with something to reclaim.
    if (!blk.is_full() || blk.invalid_count() == 0) continue;

    VictimCandidate cand{.block_id = b,
                         .valid_pages = blk.valid_count(),
                         .pages_per_block = ppb,
                         .last_update_seq = block_last_update_seq_[b],
                         .fill_seq = block_fill_seq_[b],
                         .sip_pages = block_sip_count_[b]};
    const double raw = policy_->score(cand, write_seq_);
    if (raw < best_raw) {
      best_raw = raw;
      best_raw_block = b;
    }

    double adjusted = raw;
    if (config_.enable_sip_filter && cand.sip_pages > 0) {
      // Re-score with SIP pages weighted as extra cost: migrating them is
      // wasted work, so the candidate looks (kSipPenalty x sip) pages worse.
      VictimCandidate penalized = cand;
      penalized.valid_pages = adjusted_valid(cand.valid_pages, cand.sip_pages);
      adjusted = policy_->score(penalized, write_seq_);
    }
    if (adjusted < best_adj) {
      best_adj = adjusted;
      best_adj_block = b;
    }
  }

  if (!config_.enable_sip_filter) return VictimChoice{best_raw_block, false};
  const bool filtered = best_adj_block != best_raw_block && best_adj_block != kNoBlock;
  return VictimChoice{best_adj_block, filtered};
}

Ftl::VictimChoice Ftl::select_victim_indexed(std::uint64_t* visited) const {
  flush_victim_index();
  const VictimIndex::Excluded excl{user_active_, user_active_cold_, gc_active_};
  const VictimPolicyKind kind = config_.victim_policy;
  std::uint64_t visits = 0;

  const VictimIndex::Selection raw =
      index_.select(*policy_, kind, write_seq_, /*adjusted=*/false, excl);
  visits += raw.visited;

  VictimChoice choice{raw.block, false};
  if (config_.enable_sip_filter && kind != VictimPolicyKind::kFifo &&
      kind != VictimPolicyKind::kRandom) {
    // FIFO and random scores ignore valid_pages, so the SIP penalty cannot
    // move their winner; for the rest, re-select over the adjusted buckets.
    const VictimIndex::Selection adj =
        index_.select(*policy_, kind, write_seq_, /*adjusted=*/true, excl);
    visits += adj.visited;
    const bool filtered = adj.block != raw.block && adj.block != kNoBlock;
    choice = VictimChoice{adj.block, filtered};
  }
  if (visited != nullptr) *visited += visits;
  return choice;
}

Ftl::VictimChoice Ftl::select_victim() {
  ++stats_.victim_selections;
  const VictimChoice choice = select_victim_indexed(&stats_.victim_candidates_visited);
  if (choice.sip_filtered) ++stats_.sip_filtered_selections;
  if (config_.verify_victim_selection) {
    const VictimChoice ref = select_victim_reference();
    JITGC_ENSURE_MSG(choice.block == ref.block && choice.sip_filtered == ref.sip_filtered,
                     "victim index diverged from the reference scan");
  }
  return choice;
}

TimeUs Ftl::foreground_collect() {
  TimeUs total = 0;
  const std::uint32_t ppb = config_.geometry.pages_per_block;
  while (free_pool_.size() <= config_.min_free_blocks) {
    const std::uint32_t victim = select_victim().block;
    if (victim == kNoBlock) {
      if (degraded_mode_possible()) {
        enter_read_only();
        throw DeviceWornOut("jitgc::ftl: no collectible victim left (device worn out)");
      }
      throw std::runtime_error("jitgc::ftl: device out of space (no collectible victim)");
    }
    const nand::Block& blk = nand_.block(victim);
    JITGC_ENSURE(blk.invalid_count() > 0);
    // A full-cycle collection of the background collector's block
    // supersedes its in-flight incremental work.
    if (victim == bgc_victim_) {
      bgc_victim_ = kNoBlock;
      bgc_victim_cursor_ = 0;
    }
    TimeUs cycle = 0;
    for (std::uint32_t p = 0; p < ppb; ++p) {
      if (blk.page_state(p) != nand::PageState::kValid) continue;
      ensure_gc_active_block();
      migrate_page(victim, p, gc_active_, cycle);
      note_program(gc_active_);
    }
    if (gc_active_ != kNoBlock) refresh_block_index(gc_active_);
    finish_erase(victim);
    cycle += config_.timing.block_erase_us;

    ++stats_.gc_cycles;
    ++stats_.foreground_gc_cycles;
    stats_.foreground_gc_time_us += cycle;
    total += cycle;
    // A program retry during the collection may have condemned a block;
    // retire it before re-checking the watermark so the free accounting the
    // loop condition reads is settled.
    total += process_pending_retirements();
  }
  return total;
}

Ftl::GcStep Ftl::background_collect_step(std::uint32_t max_pages) {
  GcStep step;
  if (max_pages == 0) return step;

  if (bgc_victim_ == kNoBlock) {
    const VictimChoice choice = select_victim();
    if (choice.block == kNoBlock) return step;
    const nand::Block& cand = nand_.block(choice.block);
    // Useless-BGC guard: nearly-full-valid victims burn endurance for
    // almost nothing; leave them until they self-invalidate (or until
    // foreground GC has no choice).
    const double valid_frac =
        static_cast<double>(cand.valid_count()) / static_cast<double>(cand.pages_per_block());
    if (cand.invalid_count() == 0 || valid_frac > config_.bgc_valid_threshold) return step;
    bgc_victim_ = choice.block;
    bgc_victim_cursor_ = 0;
    step.sip_filtered = choice.sip_filtered;
  }

  const std::uint32_t ppb = config_.geometry.pages_per_block;
  const nand::Block& blk = nand_.block(bgc_victim_);

  while (bgc_victim_cursor_ < ppb && step.migrated < max_pages) {
    const std::uint32_t p = bgc_victim_cursor_++;
    if (blk.page_state(p) != nand::PageState::kValid) continue;
    ensure_gc_active_block();
    migrate_page(bgc_victim_, p, gc_active_, step.time_us);
    note_program(gc_active_);
    ++step.migrated;
  }
  step.progressed = true;
  if (gc_active_ != kNoBlock) refresh_block_index(gc_active_);
  // The partially-collected victim stays an eligible candidate between
  // steps (the reference scan sees it too); keep its indexed state fresh.
  refresh_block_index(bgc_victim_);

  if (blk.valid_count() == 0) {
    const std::uint32_t victim = bgc_victim_;
    bgc_victim_ = kNoBlock;
    bgc_victim_cursor_ = 0;
    const bool usable = finish_erase(victim);
    step.time_us += config_.timing.block_erase_us;
    step.erased = true;
    step.freed_pages = usable ? ppb : 0;  // gross gain; migrations already paid
    ++stats_.gc_cycles;
    ++stats_.background_gc_cycles;
  }
  step.time_us += process_pending_retirements();
  return step;
}

TimeUs Ftl::background_reclaim(std::uint64_t target_pages) {
  TimeUs total = 0;
  const std::uint64_t goal = free_pages_ + target_pages;
  while (free_pages_ < goal) {
    const GcStep step = background_collect_step(pages_per_block());
    total += step.time_us;
    // No forward progress possible: nothing eligible, or the victim's erase
    // retired it.
    if (!step.progressed || (step.erased && step.freed_pages == 0)) break;
  }
  return total;
}

TimeUs Ftl::maybe_static_wear_level() {
  if (!config_.enable_static_wear_leveling) return 0;
  if (free_pool_.empty()) return 0;

  // Spread check: most-worn free block vs. least-worn fully-valid block.
  // Only fully-valid blocks qualify as WL sources: they are the cold data
  // that never self-invalidates, and migrating them leaves the destination
  // completely full (keeping free-page accounting exact).
  const std::uint64_t max_free_wear = free_pool_.rbegin()->first;
  flush_victim_index_wl();
  const VictimIndex::Excluded excl{user_active_, user_active_cold_, gc_active_};
  const std::uint32_t coldest = index_.select_coldest_full(excl).block;
  if (config_.verify_victim_selection) {
    JITGC_ENSURE_MSG(coldest == coldest_full_reference(),
                     "wear-level tracker diverged from the reference scan");
  }
  if (coldest == kNoBlock) return 0;
  const std::uint64_t coldest_wear = nand_.block(coldest).erase_count();
  if (max_free_wear < coldest_wear + config_.wl_spread_threshold) return 0;

  // Move the cold block's data into the most-worn free block so the cold
  // block (which rarely self-invalidates) starts absorbing erases.
  const auto hot_it = std::prev(free_pool_.end());
  std::uint32_t dest = hot_it->second;
  free_pool_.erase(hot_it);

  TimeUs cost = 0;
  const nand::Block& src = nand_.block(coldest);
  const std::uint32_t ppb = config_.geometry.pages_per_block;
  for (std::uint32_t p = 0; p < ppb; ++p) {
    if (src.page_state(p) == nand::PageState::kValid) migrate_page(coldest, p, dest, cost);
  }
  note_program(dest);
  finish_erase(coldest);
  refresh_block_index(dest);
  cost += config_.timing.block_erase_us;
  ++stats_.wear_level_moves;
  return cost;
}

std::uint32_t Ftl::coldest_full_reference() const {
  std::uint32_t coldest = kNoBlock;
  std::uint64_t coldest_wear = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t b = 0; b < nand_.num_blocks(); ++b) {
    if (b == user_active_ || b == user_active_cold_ || b == gc_active_) continue;
    if (block_health_[b] != BlockHealth::kGood) continue;
    const nand::Block& blk = nand_.block(b);
    if (!blk.is_full() || blk.valid_count() != blk.pages_per_block()) continue;
    if (blk.erase_count() < coldest_wear) {
      coldest_wear = blk.erase_count();
      coldest = b;
    }
  }
  return coldest;
}

std::vector<std::uint32_t> Ftl::recount_sip_pages() const {
  std::vector<std::uint32_t> count(nand_.num_blocks(), 0);
  for (const Lba lba : sip_.sorted()) {
    if (lba >= user_pages_) continue;
    const std::uint32_t entry = map_[lba];
    if (entry != kNoPpa) ++count[codec_.block(entry)];
  }
  return count;
}

void Ftl::check_invariants() const {
  const std::uint32_t nblocks = nand_.num_blocks();
  const std::uint32_t ppb = config_.geometry.pages_per_block;
  std::vector<std::uint8_t> is_spare(nblocks, 0);
  for (const std::uint32_t b : spare_pool_) is_spare[b] = 1;

  // Page economy and per-block valid counts, recounted from page states.
  // Spares and retired blocks are wholly offline; a grown-bad block keeps
  // its valid pages on the books until retirement moves them out.
  std::uint64_t free = 0;
  std::uint64_t valid = 0;
  std::uint64_t invalid = 0;
  std::uint64_t offline = 0;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const nand::Block& blk = nand_.block(b);
    std::uint32_t v = 0;
    for (std::uint32_t p = 0; p < ppb; ++p) v += blk.page_state(p) == nand::PageState::kValid;
    JITGC_ENSURE_MSG(v == blk.valid_count(),
                     "invariant: a block's valid count differs from a recount of its pages");
    if (block_health_[b] == BlockHealth::kRetired || is_spare[b]) {
      offline += ppb;
    } else if (block_health_[b] == BlockHealth::kGrownBad) {
      valid += v;
      offline += ppb - v;
    } else {
      valid += v;
      free += blk.free_count();
      invalid += blk.invalid_count();
    }
  }
  // invalid_pages() is the total less the other three counters, so this
  // also checks that the four add up to the device's pages.
  JITGC_ENSURE_MSG(free == free_pages_ && valid == valid_pages_ && offline == offline_pages_ &&
                       invalid == invalid_pages(),
                   "invariant: free + valid + invalid + offline pages differ from a recount");

  // L2P against OOB: each mapped LBA's page is valid and names the LBA, so
  // mapped LBAs pick distinct valid pages; as many of them as there are
  // valid pages leaves no valid page unmapped.
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < user_pages_; ++lba) {
    const std::uint32_t entry = map_[lba];
    if (entry == kNoPpa) continue;
    ++mapped;
    const nand::Ppa ppa = codec_.unpack(entry);
    const nand::Block& blk = nand_.block(ppa.block);
    JITGC_ENSURE_MSG(
        blk.page_state(ppa.page) == nand::PageState::kValid && blk.page_lba(ppa.page) == lba,
        "invariant: an L2P entry maps to a page that is not valid or whose OOB names another LBA");
  }
  JITGC_ENSURE_MSG(mapped == valid, "invariant: a valid page is not the one its OOB LBA maps to");

  JITGC_ENSURE_MSG(recount_sip_pages() == block_sip_count_,
                   "invariant: a block's SIP count differs from a recount");

  const VictimChoice indexed = select_victim_indexed();
  const VictimChoice reference = select_victim_reference();
  JITGC_ENSURE_MSG(
      indexed.block == reference.block && indexed.sip_filtered == reference.sip_filtered,
      "invariant: the victim index disagrees with the reference scan");
  flush_victim_index_wl();
  const VictimIndex::Excluded excl{user_active_, user_active_cold_, gc_active_};
  JITGC_ENSURE_MSG(index_.select_coldest_full(excl).block == coldest_full_reference(),
                   "invariant: the wear-level tracker disagrees with the reference scan");

  // The free pool: each erased, in-service, unopened block once, keyed by
  // its erase count (the key orders the least-worn-first allocation).
  std::vector<std::uint8_t> pooled(nblocks, 0);
  for (const auto& [erases, b] : free_pool_) {
    JITGC_ENSURE_MSG(b < nblocks && !pooled[b] && erases == nand_.block(b).erase_count(),
                     "invariant: a free-pool entry is a repeat or is keyed off its erase count");
    pooled[b] = 1;
  }
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const bool open = b == user_active_ || b == user_active_cold_ || b == gc_active_;
    const bool belongs = block_health_[b] == BlockHealth::kGood && !is_spare[b] &&
                         nand_.block(b).is_erased() && !open;
    JITGC_ENSURE_MSG(static_cast<bool>(pooled[b]) == belongs,
                     "invariant: the free pool is not exactly the erased in-service blocks");
  }
}

namespace {

void save_u32_vec(BinaryWriter& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  for (const std::uint32_t x : v) w.u32(x);
}

void save_u64_vec(BinaryWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) w.u64(x);
}

void restore_u32_vec(BinaryReader& r, std::vector<std::uint32_t>& v, std::uint64_t expect_size) {
  const std::uint64_t n = r.u64();
  if (n != expect_size) throw BinaryFormatError("snapshot u32 vector size mismatch");
  v.resize(n);
  for (std::uint32_t& x : v) x = r.u32();
}

void restore_u64_vec(BinaryReader& r, std::vector<std::uint64_t>& v, std::uint64_t expect_size) {
  const std::uint64_t n = r.u64();
  if (n != expect_size) throw BinaryFormatError("snapshot u64 vector size mismatch");
  v.resize(n);
  for (std::uint64_t& x : v) x = r.u64();
}

}  // namespace

void Ftl::save_state(BinaryWriter& w) const {
  nand_.save_state(w);

  w.u64(map_.size());
  for (const std::uint32_t entry : map_) save_packed_ppa(w, codec_, entry);

  w.u64(free_pool_.size());
  for (const auto& [erases, block] : free_pool_) {
    w.u64(erases);
    w.u32(block);
  }

  w.u32(user_active_);
  w.u32(user_active_cold_);
  w.u32(gc_active_);
  w.u32(bgc_victim_);
  w.u32(bgc_victim_cursor_);
  w.u64(free_pages_);
  w.u64(valid_pages_);
  w.u64(offline_pages_);
  w.u64(write_seq_);

  w.u64(block_health_.size());
  for (const BlockHealth h : block_health_) w.u8(static_cast<std::uint8_t>(h));
  save_u32_vec(w, spare_pool_);
  save_u32_vec(w, pending_retire_);
  w.u64(degrade_events_.size());
  for (const DegradeEvent& e : degrade_events_) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.block);
    w.u64(e.erase_count);
    w.u64(e.seq);
  }
  w.boolean(read_only_);

  save_u64_vec(w, block_last_update_seq_);
  save_u64_vec(w, block_fill_seq_);
  save_u32_vec(w, block_sip_count_);
  save_u64_vec(w, lba_last_write_seq_);
  w.u64(hot_window_);

  // SIP membership, ascending, so the blob is a pure function of the state.
  save_u64_vec(w, sip_.sorted());

  checkpoint_.save_state(w, codec_);
  w.u64(erases_since_checkpoint_);

  w.u64(stats_.host_pages_written);
  w.u64(stats_.host_pages_read);
  w.u64(stats_.trims);
  w.u64(stats_.gc_cycles);
  w.u64(stats_.foreground_gc_cycles);
  w.u64(stats_.background_gc_cycles);
  w.u64(stats_.victim_selections);
  w.u64(stats_.victim_candidates_visited);
  w.u64(stats_.sip_filtered_selections);
  w.u64(stats_.wear_level_moves);
  w.u64(stats_.retired_blocks);
  w.u64(stats_.grown_bad_blocks);
  w.u64(stats_.spares_promoted);
  w.u64(stats_.hot_stream_writes);
  w.u64(stats_.foreground_gc_time_us);
}

void Ftl::restore_state(BinaryReader& r) {
  const std::uint32_t nblocks = nand_.num_blocks();
  nand_.restore_state(r);

  const std::uint64_t map_size = r.u64();
  if (map_size != map_.size()) throw BinaryFormatError("snapshot L2P map size mismatch");
  for (std::uint32_t& entry : map_) entry = restore_packed_ppa(r, codec_, "snapshot mapping");

  const std::uint64_t pool_size = r.u64();
  if (pool_size > nblocks) throw BinaryFormatError("snapshot free pool larger than the device");
  free_pool_.clear();
  for (std::uint64_t i = 0; i < pool_size; ++i) {
    const std::uint64_t erases = r.u64();
    const std::uint32_t block = r.u32();
    if (block >= nblocks) throw BinaryFormatError("snapshot free pool block out of range");
    free_pool_.emplace(erases, block);
  }

  user_active_ = r.u32();
  user_active_cold_ = r.u32();
  gc_active_ = r.u32();
  bgc_victim_ = r.u32();
  bgc_victim_cursor_ = r.u32();
  free_pages_ = r.u64();
  valid_pages_ = r.u64();
  offline_pages_ = r.u64();
  write_seq_ = r.u64();

  const std::uint64_t health_size = r.u64();
  if (health_size != nblocks) throw BinaryFormatError("snapshot block-health size mismatch");
  for (BlockHealth& h : block_health_) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(BlockHealth::kRetired)) {
      throw BinaryFormatError("snapshot block health out of range");
    }
    h = static_cast<BlockHealth>(v);
  }
  const std::uint64_t spare_size = r.u64();
  if (spare_size > nblocks) throw BinaryFormatError("snapshot spare pool larger than the device");
  spare_pool_.resize(spare_size);
  for (std::uint32_t& b : spare_pool_) b = r.u32();
  const std::uint64_t retire_size = r.u64();
  if (retire_size > nblocks) throw BinaryFormatError("snapshot retire queue larger than the device");
  pending_retire_.resize(retire_size);
  for (std::uint32_t& b : pending_retire_) b = r.u32();
  const std::uint64_t event_count = r.u64();
  degrade_events_.clear();
  degrade_events_.reserve(event_count);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    DegradeEvent e;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(DegradeEvent::Kind::kReadOnly)) {
      throw BinaryFormatError("snapshot degrade-event kind out of range");
    }
    e.kind = static_cast<DegradeEvent::Kind>(kind);
    e.block = r.u32();
    e.erase_count = r.u64();
    e.seq = r.u64();
    degrade_events_.push_back(e);
  }
  read_only_ = r.boolean();

  restore_u64_vec(r, block_last_update_seq_, nblocks);
  restore_u64_vec(r, block_fill_seq_, nblocks);
  restore_u32_vec(r, block_sip_count_, nblocks);
  restore_u64_vec(r, lba_last_write_seq_,
                  config_.enable_hot_cold_separation ? user_pages_ : 0);
  hot_window_ = r.u64();

  const std::uint64_t sip_size = r.u64();
  if (sip_size > user_pages_) throw BinaryFormatError("snapshot SIP list larger than the device");
  sip_.clear();
  for (std::uint64_t i = 0; i < sip_size; ++i) sip_.insert(r.u64());

  checkpoint_.restore_state(r, codec_);
  if (checkpoint_.present &&
      (checkpoint_.map.size() != map_.size() || checkpoint_.write_ptrs.size() != nblocks)) {
    throw BinaryFormatError("snapshot checkpoint shape does not match the device");
  }
  erases_since_checkpoint_ = r.u64();

  stats_.host_pages_written = r.u64();
  stats_.host_pages_read = r.u64();
  stats_.trims = r.u64();
  stats_.gc_cycles = r.u64();
  stats_.foreground_gc_cycles = r.u64();
  stats_.background_gc_cycles = r.u64();
  stats_.victim_selections = r.u64();
  stats_.victim_candidates_visited = r.u64();
  stats_.sip_filtered_selections = r.u64();
  stats_.wear_level_moves = r.u64();
  stats_.retired_blocks = r.u64();
  stats_.grown_bad_blocks = r.u64();
  stats_.spares_promoted = r.u64();
  stats_.hot_stream_writes = r.u64();
  stats_.foreground_gc_time_us = r.u64();

  // Rebuild-not-serialize: re-declare every block from the restored truth.
  // declare_block_index computes BlockState purely from current state, so
  // the settled index equals what a cold run's lazy flush would produce at
  // its first query; the deferred dirty sets start empty for the same
  // reason (flushing a dirty block is idempotent against settled truth).
  index_dirty_.assign(nblocks, 0);
  index_dirty_list_.clear();
  wl_dirty_.assign(nblocks, 0);
  wl_dirty_list_.clear();
  for (std::uint32_t b = 0; b < nblocks; ++b) declare_block_index(b);
}

}  // namespace jitgc::ftl
