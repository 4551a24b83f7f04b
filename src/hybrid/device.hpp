// Software device: a separate, tracked memory space with its own streams.
//
// Stands in for the GPU of the paper's testbed (Table I). The algorithmic
// structure the paper depends on — two memory spaces, explicit asynchronous
// transfers, device-side BLAS, host/device overlap — is preserved; only
// the silicon is simulated. An optional cost model charges transfer time
// per byte so PCIe-bound behaviour can be studied.
//
// DeviceMatrix hands out *device-tagged* views (DMatrixView/DVectorView,
// see la/matrix.hpp): geometry-only handles host code cannot dereference.
// Stream tasks unwrap them with .in_task(); host code that legitimately
// needs the data after a synchronize() goes through hybrid::host_view().
// Allocations are registered with fth::check under a site label, and the
// async copy routines register every transfer with the happens-before race
// detector (check/access.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "check/access.hpp"
#include "common/error.hpp"
#include "la/matrix.hpp"
#include "hybrid/stream.hpp"
#include "hybrid/team.hpp"

namespace fth::hybrid {

/// Direction of a host↔device transfer, as seen by a transfer hook.
enum class TransferDir { H2D, D2H };

/// Static description + cost model of a simulated device.
struct DeviceConfig {
  std::string name = "SoftDevice (simulated accelerator)";
  std::size_t memory_limit = 0;  ///< bytes; 0 means unlimited
  double h2d_gbps = 0.0;         ///< simulated H2D bandwidth; 0 = instantaneous
  double d2h_gbps = 0.0;         ///< simulated D2H bandwidth; 0 = instantaneous
  double latency_us = 0.0;       ///< per-transfer latency charged when a bandwidth is set
  /// Pool slot id (DevicePool). Becomes part of the memory-space identity:
  /// allocations are checker-registered under it, and fth::check flags a
  /// CrossDeviceAccess when a task on one ordinal unwraps another's memory.
  /// Single-device code keeps the default 0.
  int ordinal = 0;
  /// Members of the device's kernel team (hybrid::Team): the stream worker
  /// plus team_size−1 helper threads. 0 means Team::default_size(), the
  /// whole box; DevicePool divides the box among its members instead.
  int team_size = 0;
};

/// A simulated accelerator: allocation arena + kernel team + default stream
/// + statistics.
class Device {
 public:
  explicit Device(DeviceConfig cfg = {});
  ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceConfig& config() const noexcept { return cfg_; }

  /// Pool slot id (see DeviceConfig::ordinal).
  [[nodiscard]] int ordinal() const noexcept { return cfg_.ordinal; }

  /// Allocate `bytes` of device memory (throws std::bad_alloc on limit).
  /// `site` (a static or interned string) labels the allocation in checker
  /// reports — pass the owning buffer's name.
  [[nodiscard]] void* raw_allocate(std::size_t bytes, const char* site = "device");
  void raw_deallocate(void* p, std::size_t bytes) noexcept;

  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_.load(); }
  [[nodiscard]] std::size_t peak_bytes() const noexcept { return peak_.load(); }

  /// Transfer statistics (updated by the copy routines below).
  [[nodiscard]] std::uint64_t h2d_bytes() const noexcept { return h2d_bytes_.load(); }
  [[nodiscard]] std::uint64_t d2h_bytes() const noexcept { return d2h_bytes_.load(); }
  [[nodiscard]] std::uint64_t h2d_count() const noexcept { return h2d_count_.load(); }
  [[nodiscard]] std::uint64_t d2h_count() const noexcept { return d2h_count_.load(); }
  void reset_transfer_stats() noexcept;

  /// The device's default execution stream.
  [[nodiscard]] Stream& stream() noexcept { return *default_stream_; }

  /// The threads the device's kernels run on (see hybrid/team.hpp).
  [[nodiscard]] Team& team() noexcept { return team_; }

  // Internal: stat hooks used by the transfer routines.
  void note_h2d(std::size_t bytes) noexcept;
  void note_d2h(std::size_t bytes) noexcept;
  /// Sleep for the simulated duration of a `bytes`-sized transfer (no-op
  /// when the relevant bandwidth is 0).
  void charge_transfer(std::size_t bytes, bool h2d) const;

  /// Install a hook invoked inside each transfer task right after the copy
  /// completes, with the transfer direction and the *destination* view
  /// (device memory for H2D, host memory for D2H). Runs on the stream
  /// worker thread, so mutating the destination is race-free — the view is
  /// already unwrapped for task context. The fault plane uses this to
  /// corrupt data in flight. Pass nullptr to clear.
  using TransferHook = std::function<void(TransferDir, MatrixView<double>)>;
  void set_transfer_hook(TransferHook hook);
  /// Internal: invoke the installed hook (no-op when none). Called from
  /// transfer tasks on the worker thread.
  void call_transfer_hook(TransferDir dir, MatrixView<double> dst) const;

 private:
  DeviceConfig cfg_;
  mutable std::mutex hook_m_;
  std::shared_ptr<const TransferHook> transfer_hook_;
  std::atomic<std::size_t> in_use_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> h2d_bytes_{0};
  std::atomic<std::uint64_t> d2h_bytes_{0};
  std::atomic<std::uint64_t> h2d_count_{0};
  std::atomic<std::uint64_t> d2h_count_{0};
  Team team_;  // before the stream: its worker dispatches to the team until joined
  std::unique_ptr<Stream> default_stream_;
};

/// RAII column-major matrix living in a device's memory space. `site`
/// names the buffer in checker reports ("gehrd.d_a", "ft.d_e", ...).
template <class T>
class DeviceMatrix {
 public:
  DeviceMatrix(Device& dev, index_t rows, index_t cols, const char* site = "device_matrix")
      : dev_(&dev), rows_(rows), cols_(cols), ld_(std::max<index_t>(1, rows)) {
    FTH_CHECK(rows >= 0 && cols >= 0, "device matrix dimensions must be non-negative");
    bytes_ = static_cast<std::size_t>(ld_) * static_cast<std::size_t>(cols_) * sizeof(T);
    data_ = static_cast<T*>(dev.raw_allocate(bytes_, site));
    std::fill_n(data_, static_cast<std::size_t>(ld_) * static_cast<std::size_t>(cols_), T{});
  }

  ~DeviceMatrix() {
    if (data_ != nullptr) dev_->raw_deallocate(data_, bytes_);
  }

  DeviceMatrix(DeviceMatrix&& other) noexcept { *this = std::move(other); }
  DeviceMatrix& operator=(DeviceMatrix&& other) noexcept {
    if (this != &other) {
      if (data_ != nullptr) dev_->raw_deallocate(data_, bytes_);
      dev_ = other.dev_;
      data_ = other.data_;
      rows_ = other.rows_;
      cols_ = other.cols_;
      ld_ = other.ld_;
      bytes_ = other.bytes_;
      other.data_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  DeviceMatrix(const DeviceMatrix&) = delete;
  DeviceMatrix& operator=(const DeviceMatrix&) = delete;

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] Device& device() const noexcept { return *dev_; }

  /// Device-tagged views: geometry-only on the host. Stream tasks unwrap
  /// with .in_task(); host code uses hybrid::host_view() after a sync.
  [[nodiscard]] DMatrixView<T> view() noexcept {
    return DMatrixView<T>(data_, rows_, cols_, ld_);
  }
  [[nodiscard]] DMatrixView<const T> view() const noexcept {
    return DMatrixView<const T>(data_, rows_, cols_, ld_);
  }
  [[nodiscard]] DMatrixView<T> block(index_t i, index_t j, index_t m, index_t n) noexcept {
    return view().block(i, j, m, n);
  }
  [[nodiscard]] DMatrixView<const T> block(index_t i, index_t j, index_t m,
                                           index_t n) const noexcept {
    return view().block(i, j, m, n);
  }

 private:
  Device* dev_ = nullptr;
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 1;
  std::size_t bytes_ = 0;
};

/// Checked host-side unwrap of a device view: legitimate only in the
/// host-exclusive window after the stream drained (synchronize() /
/// destructor), e.g. examples and benches reading results in place. The
/// checker flags a StreamNotIdle violation when the stream still has work.
template <class T>
[[nodiscard]] MatrixView<T> host_view(MatrixView<T, MemSpace::Device> dv, const Stream& s) {
  check::require_stream_idle(s.idle(), dv.raw_data(), "hybrid::host_view",
                             s.device() != nullptr ? s.device()->ordinal() : -1);
  return dv.unchecked_host_view();
}
template <class T>
[[nodiscard]] VectorView<T> host_view(VectorView<T, MemSpace::Device> dv, const Stream& s) {
  check::require_stream_idle(s.idle(), dv.raw_data(), "hybrid::host_view",
                             s.device() != nullptr ? s.device()->ordinal() : -1);
  return dv.unchecked_host_view();
}

/// Asynchronous host→device copy, enqueued on `s`.
void copy_h2d_async(Stream& s, MatrixView<const double> host, DMatrixView<double> dev);
/// Asynchronous device→host copy, enqueued on `s`.
void copy_d2h_async(Stream& s, DMatrixView<const double> dev, MatrixView<double> host);
/// Synchronous variants (enqueue + wait for completion). The (defaulted)
/// call site is forwarded to the synchronize, so the wait is attributed to
/// the caller rather than to device.cpp in profiles and DAG reports.
void copy_h2d(Stream& s, MatrixView<const double> host, DMatrixView<double> dev,
              std::source_location loc = std::source_location::current());
void copy_d2h(Stream& s, DMatrixView<const double> dev, MatrixView<double> host,
              std::source_location loc = std::source_location::current());

}  // namespace fth::hybrid
