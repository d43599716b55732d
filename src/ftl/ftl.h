// Page-mapped Flash Translation Layer with over-provisioning, foreground and
// background garbage collection, SIP-aware victim selection and wear leveling.
//
// This is the device-side substrate of the reproduction: the SM843T's FTL as
// the paper depends on it (Fig. 3) — address remapping, a garbage collector
// extended to honor a SIP list, and the free-capacity query the JIT-GC
// manager polls.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"
#include "ftl/recovery.h"
#include "ftl/sip_index.h"
#include "ftl/victim_index.h"
#include "ftl/victim_policy.h"
#include "nand/nand_device.h"

namespace jitgc::ftl {

/// Thrown when endurance enforcement is on and the device can no longer
/// serve writes: enough blocks have worn out that no free block (or GC
/// victim) exists. The harness catches this to measure lifetime (TBW).
class DeviceWornOut : public std::runtime_error {
 public:
  explicit DeviceWornOut(const std::string& what) : std::runtime_error(what) {}
};

/// Lifecycle of a physical block under bad-block management.
enum class BlockHealth : std::uint8_t {
  kGood,      ///< in service (or waiting in the spare pool)
  kGrownBad,  ///< failed a program; queued for retirement, may still hold data
  kRetired,   ///< permanently out of service
};

/// One bad-block-management / degradation event, in simulation order. The
/// harness drains these into the JSONL metrics stream.
struct DegradeEvent {
  enum class Kind : std::uint8_t {
    kProgramFail,   ///< a program pulse failed; the page is burned
    kEraseFail,     ///< an erase pulse failed; the block is retired
    kBlockRetired,  ///< a block left service (grown-bad, erase-fail, or endurance)
    kSparePromoted, ///< a spare block entered the free pool as a replacement
    kReadOnly,      ///< the device can no longer serve writes
  };
  Kind kind;
  std::uint32_t block = 0;
  std::uint64_t erase_count = 0;
  /// Host/GC write sequence number when the event fired (a logical clock:
  /// identical across thread counts for the same seed and fault config).
  std::uint64_t seq = 0;
};

struct FtlConfig {
  nand::Geometry geometry = nand::small_geometry();
  nand::TimingParams timing = nand::timing_20nm_mlc();
  /// NAND fault injection (off by default — see nand::FaultConfig).
  nand::FaultConfig fault;
  /// Blocks withheld from the initial free pool as replacements for retired
  /// blocks (real FTLs ship with a factory spare area). Each retirement
  /// promotes one spare; when none remain the device shrinks and eventually
  /// degrades to read-only.
  std::uint32_t spare_blocks = 0;
  /// Over-provisioning as a fraction of user capacity (SM843T: 7 %).
  double op_ratio = 0.07;
  /// Free-block low watermark: a host write that would leave at most this
  /// many free blocks triggers foreground GC first. Must be >= 1 so GC
  /// always has a migration destination.
  std::uint32_t min_free_blocks = 2;
  VictimPolicyKind victim_policy = VictimPolicyKind::kGreedy;
  /// Honor the SIP list when selecting victims (JIT-GC's extended collector).
  bool enable_sip_filter = false;
  /// Background GC refuses victims whose valid fraction exceeds this: they
  /// cost nearly a block of migrations for almost no reclaimed space (the
  /// paper's "useless BGC operations" that the C_resv cap exists to avoid).
  /// Foreground GC ignores it — when the device is out of space it must
  /// take whatever the policy scores best.
  double bgc_valid_threshold = 0.85;
  /// Static wear leveling: move cold data when erase-count spread exceeds
  /// wl_spread_threshold. Off by default so GC experiments attribute every
  /// migration to the GC policy under test.
  bool enable_static_wear_leveling = false;
  std::uint64_t wl_spread_threshold = 64;
  /// Enforce the NAND's endurance rating (timing.endurance_pe_cycles): a
  /// block erased past its rating is retired (bad-block management), and
  /// the device throws DeviceWornOut once it can no longer serve writes.
  bool enforce_endurance = false;
  /// Hot/cold data separation: route recently-rewritten LBAs to a separate
  /// active block so hot pages die together (lower-WAF victims).
  bool enable_hot_cold_separation = false;
  /// An LBA rewritten within this many host writes counts as hot
  /// (0 = auto: user_pages / 8).
  std::uint64_t hot_recency_window = 0;
  /// Durable mapping checkpoint every this many block erases (0 = never).
  /// Bounds SPO recovery to scanning only blocks written or erased since
  /// the last checkpoint instead of the whole device (see ftl/recovery.h).
  std::uint64_t checkpoint_interval_erases = 0;
  /// Cross-check every indexed victim selection (and wear-level source
  /// pick) against the reference linear scan, aborting on divergence. The
  /// determinism guard for the O(log N) index: on by default in debug
  /// builds, off in release builds (where it would reintroduce the
  /// O(num_blocks) scan the index removes).
  bool verify_victim_selection =
#ifdef NDEBUG
      false;
#else
      true;
#endif
};

struct FtlStats {
  std::uint64_t host_pages_written = 0;
  std::uint64_t host_pages_read = 0;
  std::uint64_t trims = 0;
  std::uint64_t gc_cycles = 0;
  std::uint64_t foreground_gc_cycles = 0;
  std::uint64_t background_gc_cycles = 0;
  std::uint64_t victim_selections = 0;
  /// Candidates the index examined across all selections. The no-full-scan
  /// guarantee: this grows by O(1)–O(pages_per_block) per selection, never
  /// by O(num_blocks) (random victim policy excepted — its score is a
  /// per-candidate hash, so every candidate must be visited).
  std::uint64_t victim_candidates_visited = 0;
  /// Selections where the SIP veto changed the chosen victim (Table 3).
  std::uint64_t sip_filtered_selections = 0;
  std::uint64_t wear_level_moves = 0;
  /// Blocks retired by bad-block management (endurance, erase failure, or
  /// grown-bad after a program failure).
  std::uint64_t retired_blocks = 0;
  /// Blocks that failed a program and were queued for retirement.
  std::uint64_t grown_bad_blocks = 0;
  /// Spare blocks promoted into service as retirement replacements.
  std::uint64_t spares_promoted = 0;
  /// Host writes routed to the hot stream (hot/cold separation).
  std::uint64_t hot_stream_writes = 0;
  /// Time spent inside foreground GC (stalls user writes).
  TimeUs foreground_gc_time_us = 0;
};

/// Page-mapped FTL over a NandDevice.
///
/// All host I/O is in whole FTL pages (the sim layers translate byte sizes).
/// Methods return the NAND time charged so the service model can advance the
/// simulated clock.
class Ftl {
 public:
  explicit Ftl(const FtlConfig& config);

  // -- Host datapath ---------------------------------------------------------

  /// Writes one page at `lba`. Runs foreground GC first when free blocks are
  /// at the watermark; that stall time is included in the returned cost.
  TimeUs write(Lba lba);

  /// Writes LBAs [first, first + count) in ascending order, leaving exactly
  /// the state and stats of one write() per LBA (preconditioning
  /// fills a device this way). An unmapped LBA that lands on an open block
  /// behind a write() is programmed with the rest of its run in one NAND
  /// program run, and the map, stats and victim index are updated once per
  /// run. write() itself takes the page at each block boundary, every page
  /// with fault injection configured (each draws its own fault decision),
  /// every LBA already mapped, every LBA hot/cold separation calls hot, and
  /// the page after a write that made a static wear-leveling move.
  void fill(Lba first, Lba count);

  /// Reads one page. Unmapped LBAs cost a transfer only (device returns zeros).
  /// The page's OOB LBA must be `lba` ("mapping/OOB disagreement" otherwise).
  TimeUs read(Lba lba) const;

  /// Drops the mapping for `lba`. The whole map lives in DRAM, so a trim
  /// costs no NAND time; an unmapped LBA is a no-op.
  void trim(Lba lba);

  // -- Extended host interface (the paper's custom SG_IO commands) -----------

  /// Replaces the SIP list used by the extended garbage collector and
  /// recounts every block's SIP pages. The simulator sends deltas; this
  /// full replacement is the reference tests check apply_sip_delta against.
  void set_sip_list(const std::vector<Lba>& lbas);

  /// Incremental SIP update: `added` joins the list, `removed` leaves it.
  /// Equivalent to set_sip_list(previous - removed + added), per-block
  /// counters included, at O(|delta|) instead of O(num_blocks + |list|).
  /// `added` and `removed` must be disjoint (the cache's delta tracker nets
  /// out an LBA that toggles within one interval); redundant entries —
  /// re-adding a member, removing a non-member — are ignored.
  void apply_sip_delta(const std::vector<Lba>& added, const std::vector<Lba>& removed);

  /// Enables/disables SIP-aware victim selection (the simulator flips this
  /// to match the active BGC policy's capabilities).
  void set_sip_filter_enabled(bool on) { config_.enable_sip_filter = on; }

  /// The one background collector, incremental (preemptible): migrates at
  /// most `max_pages` valid pages of the current BGC victim (selecting one
  /// first if needed) and erases the block once it holds no valid data. Real
  /// controllers interleave such steps between host requests; the simulator
  /// uses them to fill millisecond-scale idle gaps. pages_per_block() pages
  /// finish any victim.
  struct GcStep {
    bool progressed = false;       ///< false: nothing collectible
    std::uint32_t migrated = 0;
    std::uint32_t freed_pages = 0; ///< > 0 only when the erase completed
    bool erased = false;
    TimeUs time_us = 0;
    bool sip_filtered = false;     ///< set on the step that selected a victim
  };
  GcStep background_collect_step(std::uint32_t max_pages);

  /// Background-reclaims, a whole victim per step, until at least
  /// `target_pages` more pages are free (or none is eligible). Returns time.
  TimeUs background_reclaim(std::uint64_t target_pages);

  // -- Capacity queries -------------------------------------------------------

  std::uint64_t user_pages() const { return user_pages_; }
  /// User pages of a device built from `config`: its physical pages less
  /// the over-provisioning share.
  static std::uint64_t user_pages_for(const FtlConfig& config) {
    return static_cast<std::uint64_t>(static_cast<double>(config.geometry.total_pages()) /
                                      (1.0 + config.op_ratio));
  }
  Bytes user_capacity() const { return user_pages_ * page_size(); }
  Bytes op_capacity() const { return op_pages_ * page_size(); }
  Bytes page_size() const { return config_.geometry.page_size; }
  std::uint32_t pages_per_block() const { return config_.geometry.pages_per_block; }

  /// Total free (programmable) pages, including GC headroom.
  std::uint64_t free_pages() const { return free_pages_; }

  /// Free pages available to host writes before foreground GC would trigger
  /// (the C_free(t) the JIT-GC manager queries).
  std::uint64_t free_pages_for_writes() const;
  Bytes free_bytes_for_writes() const { return free_pages_for_writes() * page_size(); }

  /// Pages currently holding valid user data.
  std::uint64_t valid_pages() const { return valid_pages_; }

  /// Pages holding stale data (reclaimable by GC). Pages locked away in
  /// spare or retired blocks are off the books (offline), not reclaimable.
  std::uint64_t invalid_pages() const {
    return config_.geometry.total_pages() - free_pages_ - valid_pages_ - offline_pages_;
  }

  /// Pages outside the free/valid/invalid economy: unpromoted spares plus
  /// everything inside grown-bad and retired blocks.
  std::uint64_t offline_pages() const { return offline_pages_; }

  /// Upper bound on the free space GC could ever establish: current free
  /// pages plus everything invalid (the paper's C_unused + C_OP bound).
  Bytes reclaimable_capacity() const {
    return (free_pages_for_writes() + invalid_pages()) * page_size();
  }

  bool is_mapped(Lba lba) const;

  /// Current physical location of `lba` (block == kNoBlock when unmapped).
  /// Exposed for mapping-integrity property tests.
  nand::Ppa mapping(Lba lba) const {
    JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
    return codec_.unpack_or_none(map_[lba]);
  }

  // -- Crash consistency (ftl/recovery.h) -------------------------------------

  /// Sudden power-off: tears the open write frontiers, discards every piece
  /// of volatile state (L2P map, free pool, active streams, GC cursor, SIP
  /// counts, recency) and rebuilds the FTL from the OOB stamps on media —
  /// checkpoint-bounded when a valid mapping checkpoint exists. Cumulative
  /// stats and the durable bad-block/spare tables survive, as they would in
  /// a real device's flash-resident system area.
  RecoveryReport sudden_power_off() { return RecoveryEngine::sudden_power_off(*this); }

  /// Content stamp of the page `lba` currently maps to — the host-write
  /// identity the data carries (integrity oracles compare this against the
  /// stamp recorded when the write was acknowledged). `lba` must be mapped.
  std::uint64_t content_stamp_of(Lba lba) const {
    JITGC_ENSURE_MSG(lba < user_pages_, "LBA beyond user capacity");
    const std::uint32_t entry = map_[lba];
    JITGC_ENSURE_MSG(entry != kNoPpa, "content stamp of an unmapped LBA");
    return nand_.block(codec_.block(entry)).page_stamp(codec_.page(entry));
  }

  /// Write-sequence logical clock (monotone across programs and trims;
  /// recovery restarts it past the highest surviving OOB stamp).
  std::uint64_t write_seq() const { return write_seq_; }

  const MappingCheckpoint& mapping_checkpoint() const { return checkpoint_; }

  /// Flips one bit of the checkpoint checksum — the doctored-media test
  /// hook proving a corrupt checkpoint falls back to the full scan.
  void corrupt_checkpoint_for_test() { checkpoint_.checksum ^= 1; }

  // -- Degradation state ------------------------------------------------------

  /// True once the device can no longer serve writes (spares exhausted and
  /// no usable free block / victim left). Reads still work.
  bool read_only() const { return read_only_; }

  /// Spare blocks not yet promoted into service.
  std::uint32_t spare_blocks_left() const {
    return static_cast<std::uint32_t>(spare_pool_.size());
  }

  BlockHealth block_health(std::uint32_t block) const { return block_health_.at(block); }

  /// Degradation events accumulated since the last drain (simulation order).
  const std::vector<DegradeEvent>& degrade_events() const { return degrade_events_; }
  std::vector<DegradeEvent> take_degrade_events() {
    std::vector<DegradeEvent> out;
    out.swap(degrade_events_);
    return out;
  }

  // -- Introspection ----------------------------------------------------------

  const FtlConfig& config() const { return config_; }
  const FtlStats& stats() const { return stats_; }
  const nand::NandDevice& nand() const { return nand_; }
  const SipIndex& sip_index() const { return sip_; }

  /// Valid pages of `block` currently on the SIP list (tests compare this
  /// against a recount of sip_index() through the mapping).
  std::uint32_t block_sip_count(std::uint32_t block) const { return block_sip_count_[block]; }

  /// Write amplification factor: NAND page programs / host page writes.
  double waf() const;

  /// Per-block count of SIP LBAs mapped to the block, recounted from scratch
  /// through the SIP index and the L2P map (the oracle for
  /// block_sip_count(), sharing nothing with its incremental upkeep).
  std::vector<std::uint32_t> recount_sip_pages() const;

  /// Checks the FTL's bookkeeping against a recount from the media and the
  /// tables, and throws std::logic_error naming the first check that fails:
  ///  * free, valid, invalid and offline pages each match a recount from the
  ///    blocks' states, and together make the device's total pages;
  ///  * every mapped LBA's page is valid and carries the LBA in its OOB, and
  ///    every valid page is the one its OOB LBA maps to;
  ///  * each block's valid count and SIP count match a recount;
  ///  * the victim index picks what the reference scan picks (victim and
  ///    wear-leveling source);
  ///  * the free pool holds exactly the erased in-service blocks that no
  ///    stream has open, each keyed by its real erase count.
  /// O(total pages + user pages); meant for tests and debugging.
  void check_invariants() const;

  static constexpr std::uint32_t kNoBlock = nand::PpaCodec::kNoBlock;

  /// A failed program is retried on a fresh block at most this many times
  /// before the device gives up (DeviceWornOut).
  static constexpr std::uint32_t kProgramRetryLimit = 3;

  struct VictimChoice {
    std::uint32_t block = kNoBlock;
    bool sip_filtered = false;
  };

  /// Index-backed victim selection, side-effect free (no stats, no state
  /// change). When `visited` is non-null, the candidates examined are added
  /// to it. Exposed for tests and the selection microbenchmark.
  VictimChoice select_victim_indexed(std::uint64_t* visited = nullptr) const;

  /// Reference full-scan selection — the determinism oracle the index is
  /// cross-checked against (and the before-side of the microbenchmark).
  VictimChoice select_victim_reference() const;

  // -- Warm-state snapshots (sim/snapshot.h) ----------------------------------
  // Serializes the NAND device plus every piece of FTL truth: the L2P map,
  // free pool, active streams, bad-block/spare/degradation state, SIP
  // counts, hot/cold recency and the stats counters. The victim index and
  // its deferred-maintenance dirty sets are NOT serialized:
  // restore_state() re-declares every block from the restored truth, which
  // settles the index into exactly the state any lazily-flushed cold run
  // observes at its first query.

  void save_state(BinaryWriter& w) const;

  /// Restores a state saved by save_state() into an Ftl constructed with the
  /// same config. Throws BinaryFormatError on structural mismatch; the FTL
  /// is in an unspecified state after a throw (callers rebuild from config).
  void restore_state(BinaryReader& r);

 private:
  /// Picks a GC victim; returns kNoBlock when nothing is collectible.
  /// Index-backed; cross-checks against the reference scan when
  /// config_.verify_victim_selection is set.
  VictimChoice select_victim();

  /// Erases `block` and either returns it to the free pool or retires it
  /// (endurance limit reached, or the erase itself failed). Returns true if
  /// the block stays usable.
  bool finish_erase(std::uint32_t block);

  /// Programs `lba` into the active block `active` (a reference to one of
  /// the stream pointers), retrying on a fresh block when the fault model
  /// fails the program. A failing block is marked grown-bad and queued for
  /// retirement; burned pages and retry latencies are accounted into `cost`.
  /// `stamp` is the content stamp written to the page's OOB (the current
  /// write_seq_ for host writes; the source page's stamp for migrations).
  /// Throws DeviceWornOut when retries are exhausted or no fresh block
  /// exists. Returns the page that stuck, in the block `active` names on
  /// return (a returned Ppa went through a stack slot and stalled the caller).
  std::uint32_t program_with_retry(std::uint32_t& active, Lba lba, bool is_migration,
                                   TimeUs& cost, std::uint64_t stamp);

  /// Counts an erase toward the checkpoint cadence and takes a mapping
  /// checkpoint when the interval elapses (no-op with checkpointing off).
  void note_erase_for_checkpoint();

  /// Invalidates a page; pages on non-good blocks fall out of the
  /// reclaimable economy (they will never be erased back to free).
  void invalidate_page_at(const nand::Ppa& ppa);

  /// Flags `block` grown-bad: drops it from victim/WL candidacy, writes off
  /// its unprogrammed pages, and queues it for retirement.
  void mark_grown_bad(std::uint32_t block);

  /// Migrates all valid pages off the grown-bad `block`, then retires it.
  TimeUs retire_grown_bad(std::uint32_t block);

  /// Final bookkeeping for a block leaving service: health, stats, event
  /// log, and promotion of a spare replacement when one remains.
  void retire_block(std::uint32_t block);

  /// Drains the grown-bad retirement queue (runs at the end of the host and
  /// GC entry points, where no migration loop is in flight).
  TimeUs process_pending_retirements();

  /// Latches read-only mode (logged once) before DeviceWornOut is thrown.
  void enter_read_only();

  /// True when running in a mode where the device is allowed to die
  /// (endurance enforcement or fault injection) rather than abort.
  bool degraded_mode_possible() const {
    return config_.enforce_endurance || config_.fault.enabled();
  }

  /// Runs foreground GC until the free pool is above the watermark.
  TimeUs foreground_collect();

  /// Moves valid page `page` of `src_block` into block `dest` (a program
  /// retry may swap `dest` for a fresh block), remaps and invalidates it, and
  /// adds its time to `cost`. Callers pick `dest` and call note_program().
  void migrate_page(std::uint32_t src_block, std::uint32_t page, std::uint32_t& dest,
                    TimeUs& cost);

  void ensure_gc_active_block();

  /// Takes the least-worn block from the free pool.
  std::uint32_t allocate_free_block();
  void release_to_free_pool(std::uint32_t block_id);

  void touch_block(std::uint32_t block_id);
  /// Post-program bookkeeping: recency touch + fill-sequence stamp.
  void note_program(std::uint32_t block_id);
  TimeUs maybe_static_wear_level();
  /// Reference scan for the static wear-leveling source: the least-worn
  /// fully-valid good block no stream has open (kNoBlock when none).
  std::uint32_t coldest_full_reference() const;
  /// Hot/cold separation's classification of a write to `lba` made when the
  /// device's write sequence number is `seq` (before that write's
  /// increment): hot when the LBA was last written within the recency
  /// window. write() and fill_run() both decide by it.
  bool is_hot(Lba lba, std::uint64_t seq) const {
    const std::uint64_t last = lba_last_write_seq_[lba];
    return last != 0 && seq - last < hot_window_;
  }
  /// One bulk run of fill(): programs LBAs from `lba` (below `end`) into the
  /// open block an unmapped cold LBA's write() would use, stopping at that
  /// block's end or at the first LBA write() would treat differently.
  /// Returns the pages programmed (0 when no run can start here). Its
  /// bookkeeping mirrors write()'s for a run of unmapped LBAs; a change to
  /// one must be made to the other.
  Lba fill_run(Lba lba, Lba end);

  /// Valid count after the SIP penalty, shared by the index and the
  /// reference scan so both re-score a candidate identically.
  std::uint32_t adjusted_valid(std::uint32_t valid, std::uint32_t sip) const;
  /// Marks `block_id`'s indexed state stale; call after any mutation of its
  /// pages, recency, fill stamp, or SIP count. Selections are rarer than
  /// mutations by orders of magnitude, so the index catches up in one batch
  /// in flush_victim_index() right before the next query reads it. Every
  /// query sees exactly the state an immediate re-declaration would have
  /// produced, so results (victim_candidates_visited included) match it.
  void refresh_block_index(std::uint32_t block_id);
  /// Immediately re-declares `block_id` to the index.
  void declare_block_index(std::uint32_t block_id) const;
  /// Brings the candidate buckets up to date with every deferred mutation.
  /// Called at each bucket read (victim selection); a no-op when nothing is
  /// dirty.
  void flush_victim_index() const;
  /// Settles only the wear-level tracker (update_wl) for deferred
  /// mutations. The static wear-level spread check runs per host write, so
  /// its query path must not pay the full bucket update — bucket changes
  /// keep coalescing until a victim selection actually needs them.
  void flush_victim_index_wl() const;
  /// Moves `lba`'s SIP count from block `from` to block `to` when it is on
  /// the list (a migration relocates the page; the caller refreshes both
  /// blocks' indexed state).
  void move_sip_count(Lba lba, std::uint32_t from, std::uint32_t to);

  /// An L2P entry that maps nothing.
  static constexpr std::uint32_t kNoPpa = nand::PpaCodec::kNone;

  FtlConfig config_;
  nand::NandDevice nand_;
  /// Packs L2P entries; built after nand_ has validated the geometry.
  nand::PpaCodec codec_;
  std::unique_ptr<VictimPolicy> policy_;

  std::uint64_t user_pages_ = 0;
  std::uint64_t op_pages_ = 0;

  /// L2P mapping, one packed PPA (codec_) per LBA; kNoPpa means unmapped.
  std::vector<std::uint32_t> map_;

  /// Free (fully-erased) blocks ordered by (erase_count, id) for dynamic
  /// wear leveling.
  std::set<std::pair<std::uint64_t, std::uint32_t>> free_pool_;

  std::uint32_t user_active_ = kNoBlock;
  /// Second user stream under hot/cold separation (cold data).
  std::uint32_t user_active_cold_ = kNoBlock;
  std::uint32_t gc_active_ = kNoBlock;
  /// Block the incremental background collector is currently cleaning.
  std::uint32_t bgc_victim_ = kNoBlock;
  /// Next page index to examine within bgc_victim_.
  std::uint32_t bgc_victim_cursor_ = 0;

  std::uint64_t free_pages_ = 0;
  std::uint64_t valid_pages_ = 0;
  /// Pages outside the free/valid/invalid economy (see offline_pages()).
  std::uint64_t offline_pages_ = 0;
  std::uint64_t write_seq_ = 0;

  /// Per-block bad-block-management state (all kGood with faults off).
  std::vector<BlockHealth> block_health_;
  /// Factory spares awaiting promotion, most-preferred last.
  std::vector<std::uint32_t> spare_pool_;
  /// Grown-bad blocks awaiting retirement migration (FIFO).
  std::vector<std::uint32_t> pending_retire_;
  std::vector<DegradeEvent> degrade_events_;
  bool read_only_ = false;

  std::vector<std::uint64_t> block_last_update_seq_;
  /// Host-write sequence number at which each block became full (FIFO).
  std::vector<std::uint64_t> block_fill_seq_;
  /// |{lba in SIP list : mapped to this block}|, kept exact at every
  /// mapping and SIP mutation.
  std::vector<std::uint32_t> block_sip_count_;
  /// Last write sequence per LBA (hot/cold classification); empty unless
  /// separation is enabled.
  std::vector<std::uint64_t> lba_last_write_seq_;
  std::uint64_t hot_window_ = 0;

  /// Bitmap over [0, user_pages_), sized in the constructor.
  SipIndex sip_;
  /// Mutable alongside the dirty set: queries are logically const but must
  /// settle pending block-state updates first (the same pattern as
  /// PercentileTracker's sort-on-demand samples).
  mutable VictimIndex index_;
  /// Deferred-maintenance dirty sets: flag byte + dedup list of blocks whose
  /// indexed state is stale. Bucket and wear-level staleness settle
  /// independently — each query flushes only the structure it reads — so a
  /// block can sit on both lists; each flush clears its own.
  mutable std::vector<std::uint8_t> index_dirty_;
  mutable std::vector<std::uint32_t> index_dirty_list_;
  mutable std::vector<std::uint8_t> wl_dirty_;
  mutable std::vector<std::uint32_t> wl_dirty_list_;
  /// Durable mapping checkpoint (notionally the flash journal region) and
  /// the erase cadence counter driving it.
  MappingCheckpoint checkpoint_;
  std::uint64_t erases_since_checkpoint_ = 0;
  FtlStats stats_;

  friend class RecoveryEngine;
};

}  // namespace jitgc::ftl
