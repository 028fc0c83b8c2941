#include "pipeline/matrix_cache.hpp"

#include <exception>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "core/serialize.hpp"
#include "ct/system_matrix.hpp"
#include "util/timing.hpp"

namespace cscv::pipeline {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kFbp: return "fbp";
    case Algorithm::kSirt: return "sirt";
    case Algorithm::kCgls: return "cgls";
    case Algorithm::kOsSart: return "ossart";
  }
  return "?";
}

Algorithm algorithm_from_name(std::string_view name) {
  if (name == "fbp") return Algorithm::kFbp;
  if (name == "sirt") return Algorithm::kSirt;
  if (name == "cgls") return Algorithm::kCgls;
  if (name == "ossart") return Algorithm::kOsSart;
  CSCV_CHECK_MSG(false, "unknown algorithm \"" << std::string(name)
                                               << "\" (want fbp|sirt|cgls|ossart)");
  return Algorithm::kSirt;  // unreachable
}

const char* variant_name(core::CscvMatrix<float>::Variant v) {
  return v == core::CscvMatrix<float>::Variant::kZ ? "z" : "m";
}

core::CscvMatrix<float>::Variant variant_from_name(std::string_view name) {
  if (name == "m") return core::CscvMatrix<float>::Variant::kM;
  if (name == "z") return core::CscvMatrix<float>::Variant::kZ;
  CSCV_CHECK_MSG(false, "unknown CSCV variant \"" << std::string(name) << "\" (want m|z)");
  return core::CscvMatrix<float>::Variant::kM;  // unreachable
}

std::string MatrixKey::fingerprint() const {
  std::ostringstream os;
  // max_digits10 round-trips the angle doubles exactly, so two keys collide
  // only when the geometries are bit-identical.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "par" << geometry.image_size << 'x' << geometry.num_bins << 'x'
     << geometry.num_views << "-a" << geometry.start_angle_deg << "-d"
     << geometry.delta_angle_deg << "-v" << cscv.s_vvec << 'i' << cscv.s_imgb << 'g'
     << cscv.s_vxg << '-' << core::reference_name(cscv.reference) << '-'
     << core::vxg_order_name(cscv.order)
     << (variant == core::CscvMatrix<float>::Variant::kZ ? "-z" : "-m");
  // Suffix only when non-default: fp32/eps=0 keys keep the short form.
  if (value_type != core::ValueType::kF32) {
    os << '-' << core::value_type_name(value_type);
  }
  if (sparsify_eps > 0.0) os << "-e" << sparsify_eps;
  return os.str();
}

std::size_t SystemMatrixEntry::bytes() const { return cscv ? cscv->matrix_bytes() : 0; }

util::Json CacheStats::to_json() const {
  util::Json j = util::Json::object();
  j["hits"] = util::Json(hits);
  j["misses"] = util::Json(misses);
  j["single_flight_waits"] = util::Json(single_flight_waits);
  j["builds"] = util::Json(builds);
  j["restores"] = util::Json(restores);
  j["evictions"] = util::Json(evictions);
  j["spills"] = util::Json(spills);
  j["hit_rate"] = util::Json(hit_rate());
  j["resident_bytes"] = util::Json(resident_bytes);
  j["resident_entries"] = util::Json(resident_entries);
  return j;
}

CacheStats CacheStats::from_json(const util::Json& j) {
  CacheStats s;
  s.hits = static_cast<std::uint64_t>(j.at("hits").as_int());
  s.misses = static_cast<std::uint64_t>(j.at("misses").as_int());
  s.single_flight_waits =
      static_cast<std::uint64_t>(j.at("single_flight_waits").as_int());
  s.builds = static_cast<std::uint64_t>(j.at("builds").as_int());
  s.restores = static_cast<std::uint64_t>(j.at("restores").as_int());
  s.evictions = static_cast<std::uint64_t>(j.at("evictions").as_int());
  s.spills = static_cast<std::uint64_t>(j.at("spills").as_int());
  s.resident_bytes = static_cast<std::size_t>(j.at("resident_bytes").as_int());
  s.resident_entries = static_cast<std::size_t>(j.at("resident_entries").as_int());
  return s;
}

SystemMatrixCache::SystemMatrixCache(Options options) : options_(std::move(options)) {
  CSCV_CHECK_MSG(options_.budget_bytes > 0, "cache budget must be positive");
}

std::string SystemMatrixCache::spill_path(const MatrixKey& key) const {
  CSCV_CHECK_MSG(!options_.spill_dir.empty(), "cache has no spill_dir configured");
  return options_.spill_dir + "/" + key.fingerprint() + ".cscv";
}

std::shared_ptr<SystemMatrixEntry> SystemMatrixCache::build_entry(const MatrixKey& key) {
  key.geometry.validate();
  key.cscv.validate();
  util::WallTimer timer;
  auto entry = std::make_shared<SystemMatrixEntry>();
  entry->geometry = key.geometry;
  entry->layout = core::OperatorLayout::from_geometry(key.geometry);
  const auto csc = ct::build_system_matrix_csc<float>(key.geometry);
  auto cscv =
      core::CscvMatrix<float>::build(csc, entry->layout, key.cscv, key.variant);
  // Footprint reduction happens build-side so every consumer of the entry
  // (and its spill file) sees the same certified operator: sparsify first —
  // dropping in fp32 keeps the certificate exact — then narrow the survivors.
  if (key.sparsify_eps > 0.0) cscv.sparsify(key.sparsify_eps);
  if (key.value_type != core::ValueType::kF32) cscv.convert_values(key.value_type);
  entry->cscv = std::make_shared<const core::CscvMatrix<float>>(std::move(cscv));
  entry->build_seconds = timer.seconds();
  return entry;
}

std::shared_ptr<SystemMatrixEntry> SystemMatrixCache::try_restore(
    const MatrixKey& key) const {
  if (options_.spill_dir.empty()) return nullptr;
  const std::string path = spill_path(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return nullptr;
  try {
    util::WallTimer timer;
    // load_cscv runs the mandatory cheap invariant verify; a truncated or
    // bit-flipped spill file throws here and we rebuild from scratch.
    auto m = core::load_cscv_file<float>(path);
    const auto layout = core::OperatorLayout::from_geometry(key.geometry);
    const bool matches = m.params() == key.cscv && m.variant() == key.variant &&
                         m.value_type() == key.value_type &&
                         m.sparsify_eps() == key.sparsify_eps &&
                         m.layout().image_size == layout.image_size &&
                         m.layout().num_bins == layout.num_bins &&
                         m.layout().num_views == layout.num_views;
    if (!matches) return nullptr;  // stale or foreign file under our name
    auto entry = std::make_shared<SystemMatrixEntry>();
    entry->geometry = key.geometry;
    entry->layout = layout;
    entry->restored_from_spill = true;
    entry->cscv = std::make_shared<const core::CscvMatrix<float>>(std::move(m));
    entry->build_seconds = timer.seconds();
    return entry;
  } catch (const std::exception&) {
    // CheckError from the invariant verify, bad_alloc on an oversized file,
    // iostream/filesystem failures — any unusable spill degrades to a
    // rebuild rather than failing the job.
    return nullptr;
  }
}

void SystemMatrixCache::touch_locked(const std::string& fingerprint) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (*it == fingerprint) {
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
  }
}

std::vector<std::shared_ptr<const SystemMatrixEntry>> SystemMatrixCache::evict_to_locked(
    std::size_t budget, const std::string& keep) {
  std::vector<std::shared_ptr<const SystemMatrixEntry>> victims;
  while (resident_bytes_ > budget && !lru_.empty() && lru_.back() != keep) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = slots_.find(victim);
    if (it == slots_.end()) continue;
    const std::shared_ptr<const SystemMatrixEntry> entry = it->second->entry;
    slots_.erase(it);
    if (entry) {
      resident_bytes_ -= std::min(resident_bytes_, entry->bytes());
      ++stats_.evictions;
      if (!options_.spill_dir.empty()) victims.push_back(entry);
    }
  }
  return victims;
}

void SystemMatrixCache::spill_entries(
    const std::vector<std::shared_ptr<const SystemMatrixEntry>>& victims) {
  for (const auto& entry : victims) {
    try {
      std::filesystem::create_directories(options_.spill_dir);
      const MatrixKey key{entry->geometry, entry->cscv->params(), entry->cscv->variant(),
                          entry->cscv->value_type(), entry->cscv->sparsify_eps()};
      core::save_cscv_file(spill_path(key), *entry->cscv);
      util::MutexLock lock(mu_);
      ++stats_.spills;
    } catch (const std::exception&) {
      // Spill is an optimization; a full-disk or unwritable directory
      // must not take the serving path down. The entry is simply gone.
    }
  }
}

SystemMatrixCache::Acquired SystemMatrixCache::get_or_build(const MatrixKey& key) {
  util::WallTimer timer;
  const std::string fp = key.fingerprint();
  std::shared_ptr<Slot> slot;
  {
    util::MutexLock lock(mu_);
    auto it = slots_.find(fp);
    if (it != slots_.end()) {
      slot = it->second;
      if (!slot->building) {
        ++stats_.hits;
        touch_locked(fp);
        return {slot->entry, true, false, timer.seconds()};
      }
      // Single-flight: someone else is building this key right now — wait
      // for that one build instead of starting a duplicate.
      ++stats_.single_flight_waits;
      while (slot->building) ready_.wait(mu_);
      if (slot->error) std::rethrow_exception(slot->error);
      touch_locked(fp);
      return {slot->entry, false, false, timer.seconds()};
    }
    ++stats_.misses;
    slot = std::make_shared<Slot>();
    slots_.emplace(fp, slot);
  }

  // Build (or restore) outside the lock, so distinct keys build in parallel
  // and lookups of ready entries never stall behind a build.
  std::shared_ptr<SystemMatrixEntry> entry;
  bool restored = false;
  try {
    entry = try_restore(key);
    restored = entry != nullptr;
    if (!entry) entry = build_entry(key);
  } catch (...) {
    util::MutexLock lock(mu_);
    slot->building = false;
    slot->error = std::current_exception();
    slots_.erase(fp);  // waiters rethrow via their slot ref; new calls retry
    ready_.notify_all();
    throw;
  }

  std::vector<std::shared_ptr<const SystemMatrixEntry>> victims;
  {
    util::MutexLock lock(mu_);
    slot->building = false;
    slot->entry = entry;
    if (restored) {
      ++stats_.restores;
    } else {
      ++stats_.builds;
    }
    lru_.push_front(fp);
    resident_bytes_ += entry->bytes();
    victims = evict_to_locked(options_.budget_bytes, fp);
    ready_.notify_all();
  }
  spill_entries(victims);
  return {std::move(entry), false, restored, timer.seconds()};
}

CacheStats SystemMatrixCache::stats() const {
  util::MutexLock lock(mu_);
  CacheStats s = stats_;
  s.resident_bytes = resident_bytes_;
  s.resident_entries = lru_.size();
  return s;
}

std::vector<std::string> SystemMatrixCache::resident_fingerprints() const {
  util::MutexLock lock(mu_);
  return {lru_.begin(), lru_.end()};
}

void SystemMatrixCache::clear() {
  // Budget 0 evicts everything ready; in-flight builds are untracked by
  // the LRU and publish normally. options_ itself stays untouched —
  // options() hands out an unsynchronized reference, so mutating the
  // budget here (even briefly) would be a data race against readers.
  std::vector<std::shared_ptr<const SystemMatrixEntry>> victims;
  {
    util::MutexLock lock(mu_);
    victims = evict_to_locked(0, "");
  }
  spill_entries(victims);
}

}  // namespace cscv::pipeline
