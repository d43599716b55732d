#include "sim/snapshot.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "sim/simulator.h"

namespace jitgc::sim {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotMagic[8] = {'J', 'I', 'T', 'G', 'C', 'S', 'N', 'P'};

/// Advisory whole-directory lock (flock on `<dir>/.lock`) serialising the
/// disk tier across concurrent sweep invocations sharing one
/// --snapshot-cache directory: publication (tmp+rename) and LRU eviction
/// never interleave, so an evictor cannot delete a file mid-publication and
/// a reader never races a concurrent eviction scan. Advisory by design —
/// if the lock file cannot be created or flock fails, the cache degrades
/// to the old unlocked behaviour instead of failing the run.
class DirLock {
 public:
  DirLock(const std::string& dir, int operation) {
    if (dir.empty()) return;
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = (fs::path(dir) / ".lock").string();
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    if (::flock(fd_, operation) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "\n", key, v);
  out += buf;
}

/// %.17g round-trips every double exactly, so the fingerprint text is a
/// bijective image of the value (not a lossy display rendering).
void append_f64(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
  out += buf;
}

}  // namespace

const char* snapshot_source_name(SnapshotSource source) {
  switch (source) {
    case SnapshotSource::kCold: return "cold";
    case SnapshotSource::kWarmClone: return "warm_clone";
    case SnapshotSource::kWarmDisk: return "warm_disk";
  }
  return "unknown";
}

void append_ssd_fingerprint_fields(std::string& out, const SsdConfig& ssd) {
  const ftl::FtlConfig& f = ssd.ftl;
  const nand::Geometry& g = f.geometry;
  const nand::TimingParams& t = f.timing;
  append_u64(out, "geom.channels", g.channels);
  append_u64(out, "geom.dies_per_channel", g.dies_per_channel);
  append_u64(out, "geom.planes_per_die", g.planes_per_die);
  append_u64(out, "geom.blocks_per_plane", g.blocks_per_plane);
  append_u64(out, "geom.pages_per_block", g.pages_per_block);
  append_u64(out, "geom.page_size", g.page_size);
  // Timing shapes precondition state only through the endurance rating (the
  // wear ramp's anchor), but the latencies are cheap to include and make the
  // fingerprint self-describing for anyone diffing two cache keys.
  append_u64(out, "timing.page_read_us", static_cast<std::uint64_t>(t.page_read_us));
  append_u64(out, "timing.page_program_us", static_cast<std::uint64_t>(t.page_program_us));
  append_u64(out, "timing.block_erase_us", static_cast<std::uint64_t>(t.block_erase_us));
  append_u64(out, "timing.page_transfer_us", static_cast<std::uint64_t>(t.page_transfer_us));
  append_u64(out, "timing.endurance_pe_cycles", t.endurance_pe_cycles);
  append_f64(out, "ftl.op_ratio", f.op_ratio);
  append_u64(out, "ftl.min_free_blocks", f.min_free_blocks);
  append_u64(out, "ftl.spare_blocks", f.spare_blocks);
  append_u64(out, "ftl.victim_policy", static_cast<std::uint64_t>(f.victim_policy));
  append_f64(out, "ftl.bgc_valid_threshold", f.bgc_valid_threshold);
  append_u64(out, "ftl.enable_static_wear_leveling", f.enable_static_wear_leveling ? 1 : 0);
  append_u64(out, "ftl.wl_spread_threshold", f.wl_spread_threshold);
  append_u64(out, "ftl.enforce_endurance", f.enforce_endurance ? 1 : 0);
  append_u64(out, "ftl.enable_hot_cold_separation", f.enable_hot_cold_separation ? 1 : 0);
  append_u64(out, "ftl.hot_recency_window", f.hot_recency_window);
  // Checkpointing mutates serialized FTL state (the mapping checkpoint is
  // rewritten every K erases, preconditioning included), so the interval is
  // part of what the snapshot captures.
  append_u64(out, "ftl.checkpoint_interval_erases", f.checkpoint_interval_erases);
  append_f64(out, "fault.program_fail_prob", f.fault.program_fail_prob);
  append_f64(out, "fault.erase_fail_prob", f.fault.erase_fail_prob);
  append_f64(out, "fault.wear_fail_prob_at_limit", f.fault.wear_fail_prob_at_limit);
  append_f64(out, "fault.wear_ramp_start", f.fault.wear_ramp_start);
  // The resolved stream seed — the simulator keys it from the run seed
  // before the device is built, so include the value the device actually
  // draws from, not the config default.
  append_u64(out, "fault.seed", f.fault.enabled() ? f.fault.seed : 0);
}

std::string precondition_fingerprint(const SimConfig& config, Lba footprint_pages,
                                     Lba working_set_pages) {
  std::string out = "jitgc-precondition-fingerprint v";
  out += std::to_string(kSnapshotFormatVersion);
  out += "\n";
  append_ssd_fingerprint_fields(out, config.ssd);
  append_u64(out, "run.seed", config.seed);
  append_u64(out, "run.footprint_pages", footprint_pages);
  append_u64(out, "run.working_set_pages", working_set_pages);
  // SPO config joins the fingerprint only when a power cut can fire during
  // preconditioning. Measured-run injection (--spo-at / --spo-every) cannot
  // touch post-precondition state, so those knobs are deliberately excluded:
  // an SPO sweep still shares one warm snapshot across all its cells.
  if (config.spo_precondition_after_writes > 0) {
    append_u64(out, "run.spo_precondition_after_writes", config.spo_precondition_after_writes);
  }
  return out;
}

SnapshotCache::Blob SnapshotCache::find(const std::string& fingerprint, SnapshotSource* source) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memory_.find(fingerprint);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      if (source != nullptr) *source = SnapshotSource::kWarmClone;
      return it->second;
    }
  }
  if (dir_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return nullptr;
  }

  // Disk tier: load and verify outside the lock (file I/O is slow), then
  // publish. Any defect — unreadable, truncated, wrong magic/version, a
  // fingerprint collision, a checksum mismatch — rejects the file and falls
  // back to cold preconditioning; a cache is never allowed to fail a run.
  const std::string path = file_path(fingerprint);
  std::string raw;
  {
    // Shared lock: readers proceed concurrently but never overlap a
    // publication/eviction critical section in another invocation.
    DirLock dir_lock(dir_, LOCK_SH);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
      return nullptr;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    raw = std::move(buf).str();
  }
  std::string payload;
  // Owned copy: an exception's what() dies with the exception object.
  std::string reject;
  try {
    BinaryReader r(raw);
    char magic[sizeof(kSnapshotMagic)];
    for (char& c : magic) c = static_cast<char>(r.u8());
    if (std::string_view(magic, sizeof(magic)) !=
        std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
      reject = "bad magic (not a snapshot file)";
    } else if (const std::uint32_t version = r.u32(); version != kSnapshotFormatVersion) {
      reject = "snapshot format version mismatch";
    } else if (r.str() != fingerprint) {
      reject = "fingerprint mismatch (stale or hash-colliding cache entry)";
    } else {
      const std::uint64_t checksum = r.u64();
      payload = r.str();
      r.expect_end();
      if (fnv1a64(payload) != checksum) reject = "payload checksum mismatch";
    }
  } catch (const BinaryFormatError& e) {
    reject = e.what();
  }
  if (!reject.empty()) {
    JITGC_WARN("snapshot cache: rejecting " << path << " (" << reject
                                            << "); falling back to cold preconditioning");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    ++stats_.misses;
    return nullptr;
  }

  // Refresh the file's mtime so the LRU cap (set_disk_limit) treats a disk
  // hit as recent use; best-effort, a read-only cache directory still works.
  {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  }

  auto blob = std::make_shared<const std::string>(std::move(payload));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_hits;
  if (source != nullptr) *source = SnapshotSource::kWarmDisk;
  // Promote for later in-process clones; a concurrent loader may have won.
  auto [it, inserted] = memory_.emplace(fingerprint, blob);
  return it->second;
}

void SnapshotCache::store(const std::string& fingerprint, std::string payload) {
  auto blob = std::make_shared<const std::string>(std::move(payload));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = memory_.emplace(fingerprint, blob);
    if (!inserted) return;  // first writer won; disk file already on its way
  }
  if (dir_.empty()) return;

  // Atomic publication: write a private tmp file, then rename into place.
  // Concurrent invocations racing on the same key each publish a complete
  // file; the last rename wins with identical bytes.
  const std::string path = file_path(fingerprint);
  BinaryWriter w;
  for (char c : kSnapshotMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kSnapshotFormatVersion);
  w.str(fingerprint);
  w.u64(fnv1a64(*blob));
  w.str(*blob);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Exclusive lock: publication and the eviction scan form one critical
  // section, so a concurrent invocation's evictor cannot delete this file
  // between its rename and its first use.
  DirLock dir_lock(dir_, LOCK_EX);
  const std::string tmp = path + ".tmp." + std::to_string(
      static_cast<std::uint64_t>(fnv1a64(fingerprint)) ^
      reinterpret_cast<std::uintptr_t>(&w));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out) out.write(w.data().data(), static_cast<std::streamsize>(w.data().size()));
    if (!out) {
      JITGC_WARN("snapshot cache: cannot write " << tmp
                                                 << "; continuing with the in-memory copy only");
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    JITGC_WARN("snapshot cache: cannot publish " << path << " (" << ec.message()
                                                 << "); continuing with the in-memory copy only");
    fs::remove(tmp, ec);
    return;
  }
  if (disk_limit_ > 0) evict_over_limit_locked();
}

void SnapshotCache::evict_over_limit_locked() {
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("warm_", 0) != 0 || de.path().extension() != ".snap") continue;
    const auto mtime = fs::last_write_time(de.path(), ec);
    if (ec) continue;
    entries.push_back({de.path(), mtime});
  }
  if (entries.size() <= disk_limit_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  const std::size_t excess = entries.size() - static_cast<std::size_t>(disk_limit_);
  std::uint64_t evicted = 0;
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(entries[i].path, ec)) ++evicted;
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.evicted += evicted;
  if (evicted > 0 && !evict_warned_) {
    evict_warned_ = true;
    JITGC_WARN("snapshot cache: directory " << dir_ << " exceeded --snapshot-cache-limit="
                                            << disk_limit_ << "; evicting least-recently-used "
                                            << "snapshots (reported once per run)");
  }
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string SnapshotCache::file_path(const std::string& fingerprint) const {
  char name[32];
  std::snprintf(name, sizeof(name), "warm_%016" PRIx64 ".snap", fnv1a64(fingerprint));
  return (fs::path(dir_) / name).string();
}

}  // namespace jitgc::sim
