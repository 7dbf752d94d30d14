#pragma once
// Simulated guest physical memory.
//
// Each domain owns a GuestMemory: a flat, page-granular physical address
// space. The fabric's HCA DMA-writes real bytes (WQE rings, CQE rings) into
// it, and dom0 tools (IBMon) read those bytes back out through the foreign
// mapping API — the simulation equivalent of Xen's xc_map_foreign_range.
// Foreign mapping must be explicitly enabled per-memory, mirroring the
// hypervisor privilege check.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace resex::mem {

/// Guest-physical address.
using GuestAddr = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;

/// Thrown when an access violates the guest physical address space bounds.
class BadGuestAccess : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Thrown when foreign mapping is attempted without privilege.
class ForeignMapDenied : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class GuestMemory {
 public:
  explicit GuestMemory(std::size_t pages)
      : bytes_(pages * kPageSize, std::byte{0}) {
    if (pages == 0) {
      throw std::invalid_argument("GuestMemory: need at least one page");
    }
  }

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return bytes_.size();
  }
  [[nodiscard]] std::size_t page_count() const noexcept {
    return bytes_.size() / kPageSize;
  }

  /// Copy bytes into guest memory. Throws BadGuestAccess on overflow. An
  /// empty span (whose data() may be null) copies nothing.
  void write(GuestAddr addr, std::span<const std::byte> data) {
    check_range(addr, data.size());
    if (!data.empty()) {
      std::memcpy(bytes_.data() + addr, data.data(), data.size());
    }
    if (dirty_tracking_) mark_dirty(addr, data.size());
  }

  /// Copy bytes out of guest memory. Throws BadGuestAccess on overflow. An
  /// empty span (whose data() may be null) copies nothing.
  void read(GuestAddr addr, std::span<std::byte> out) const {
    check_range(addr, out.size());
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + addr, out.size());
    }
  }

  /// Write a trivially-copyable object at `addr`.
  template <typename T>
  void write_obj(GuestAddr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_range(addr, sizeof(T));
    std::memcpy(bytes_.data() + addr, &value, sizeof(T));
    if (dirty_tracking_) mark_dirty(addr, sizeof(T));
  }

  /// Read a trivially-copyable object at `addr`.
  template <typename T>
  [[nodiscard]] T read_obj(GuestAddr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_range(addr, sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + addr, sizeof(T));
    return value;
  }

  /// Zero a byte range.
  void zero(GuestAddr addr, std::size_t len) {
    check_range(addr, len);
    std::memset(bytes_.data() + addr, 0, len);
    if (dirty_tracking_) mark_dirty(addr, len);
  }

  // --- dirty-page tracking (live migration log-dirty mode) ------------------

  /// Enable page-granular write tracking, the simulation analogue of Xen's
  /// log-dirty mode. All writes — guest stores and HCA DMA alike (CQE rings
  /// keep re-dirtying their pages, honestly) — mark their pages. Enabling
  /// starts with a clean map; disabling drops it.
  void set_dirty_tracking(bool enabled) {
    dirty_tracking_ = enabled;
    dirty_.assign(enabled ? page_count() : 0, false);
  }
  [[nodiscard]] bool dirty_tracking() const noexcept {
    return dirty_tracking_;
  }

  /// Pages dirtied since tracking was enabled or last collected, clearing
  /// the map (the migration pre-copy "peek and clean" step). Page numbers
  /// ascend.
  [[nodiscard]] std::vector<std::size_t> collect_dirty_pages() {
    std::vector<std::size_t> pages;
    for (std::size_t p = 0; p < dirty_.size(); ++p) {
      if (dirty_[p]) {
        pages.push_back(p);
        dirty_[p] = false;
      }
    }
    return pages;
  }

  [[nodiscard]] std::size_t dirty_page_count() const noexcept {
    std::size_t n = 0;
    for (const bool d : dirty_) n += d ? 1 : 0;
    return n;
  }

  // --- foreign mapping (introspection) --------------------------------------

  /// Grant or revoke the privilege to map this memory from outside the guest
  /// (dom0 capability in Xen terms).
  void set_foreign_mappable(bool allowed) noexcept {
    foreign_mappable_ = allowed;
  }
  [[nodiscard]] bool foreign_mappable() const noexcept {
    return foreign_mappable_;
  }

  /// Map a range for read-only out-of-band inspection, as IBMon does via
  /// xc_map_foreign_range. The range must be page-aligned, like the real
  /// hypercall. Throws ForeignMapDenied without privilege.
  [[nodiscard]] std::span<const std::byte> map_foreign_range(
      GuestAddr addr, std::size_t len) const {
    if (!foreign_mappable_) {
      throw ForeignMapDenied("map_foreign_range: introspection not permitted");
    }
    if (addr % kPageSize != 0) {
      throw BadGuestAccess("map_foreign_range: address not page-aligned");
    }
    check_range(addr, len);
    return std::span<const std::byte>(bytes_.data() + addr, len);
  }

 private:
  void check_range(GuestAddr addr, std::size_t len) const {
    if (addr > bytes_.size() || len > bytes_.size() - addr) {
      throw BadGuestAccess("guest memory access out of bounds");
    }
  }

  void mark_dirty(GuestAddr addr, std::size_t len) {
    if (len == 0) return;
    const std::size_t first = addr / kPageSize;
    const std::size_t last = (addr + len - 1) / kPageSize;
    for (std::size_t p = first; p <= last; ++p) dirty_[p] = true;
  }

  std::vector<std::byte> bytes_;
  bool foreign_mappable_ = false;
  bool dirty_tracking_ = false;
  std::vector<bool> dirty_;  // page-granular write log (empty when disabled)
};

/// Simple bump allocator over a GuestMemory, used by guest applications to
/// carve out rings and data buffers. Page-aligned allocations supported so
/// that rings can be foreign-mapped.
class GuestAllocator {
 public:
  explicit GuestAllocator(GuestMemory& memory, GuestAddr base = 0)
      : memory_(&memory), next_(base) {}

  /// Allocate `len` bytes with the given alignment (power of two).
  [[nodiscard]] GuestAddr allocate(std::size_t len,
                                   std::size_t alignment = 64) {
    if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
      throw std::invalid_argument("GuestAllocator: bad alignment");
    }
    const GuestAddr aligned = (next_ + alignment - 1) & ~(alignment - 1);
    if (aligned + len > memory_->size_bytes()) {
      throw std::bad_alloc();
    }
    next_ = aligned + len;
    return aligned;
  }

  /// Allocate whole pages (for rings that will be introspected).
  [[nodiscard]] GuestAddr allocate_pages(std::size_t pages) {
    return allocate(pages * kPageSize, kPageSize);
  }

  [[nodiscard]] std::size_t bytes_used() const noexcept { return next_; }

 private:
  GuestMemory* memory_;
  GuestAddr next_;
};

}  // namespace resex::mem
