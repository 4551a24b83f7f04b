#include "hybrid/device.hpp"

#include <chrono>
#include <new>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

Device::Device(DeviceConfig cfg)
    : cfg_(std::move(cfg)),
      team_(cfg_.team_size > 0 ? cfg_.team_size : Team::default_size()) {
  default_stream_ = std::make_unique<Stream>(this);
}

void* Device::raw_allocate(std::size_t bytes, const char* site) {
  const std::size_t now = in_use_.fetch_add(bytes) + bytes;
  if (cfg_.memory_limit != 0 && now > cfg_.memory_limit) {
    in_use_.fetch_sub(bytes);
    throw std::bad_alloc();
  }
  std::size_t peak = peak_.load();
  while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
  }
  void* p = ::operator new(bytes, kAlignment);
  check::on_device_alloc(p, bytes, site, cfg_.ordinal);
  return p;
}

void Device::raw_deallocate(void* p, std::size_t bytes) noexcept {
  check::on_device_free(p);
  in_use_.fetch_sub(bytes);
  ::operator delete(p, kAlignment);
}

void Device::reset_transfer_stats() noexcept {
  h2d_bytes_ = 0;
  d2h_bytes_ = 0;
  h2d_count_ = 0;
  d2h_count_ = 0;
}

void Device::note_h2d(std::size_t bytes) noexcept {
  h2d_bytes_ += bytes;
  ++h2d_count_;
  static obs::Counter& total = obs::counter_metric("device.h2d_bytes");
  static obs::Counter& count = obs::counter_metric("device.h2d_count");
  total.add(bytes);
  count.add();
}

void Device::note_d2h(std::size_t bytes) noexcept {
  d2h_bytes_ += bytes;
  ++d2h_count_;
  static obs::Counter& total = obs::counter_metric("device.d2h_bytes");
  static obs::Counter& count = obs::counter_metric("device.d2h_count");
  total.add(bytes);
  count.add();
}

void Device::set_transfer_hook(TransferHook hook) {
  std::lock_guard lock(hook_m_);
  if (hook)
    transfer_hook_ = std::make_shared<const TransferHook>(std::move(hook));
  else
    transfer_hook_.reset();
}

void Device::call_transfer_hook(TransferDir dir, MatrixView<double> dst) const {
  std::shared_ptr<const TransferHook> hook;
  {
    std::lock_guard lock(hook_m_);
    hook = transfer_hook_;
  }
  if (hook) (*hook)(dir, dst);
}

void Device::charge_transfer(std::size_t bytes, bool h2d) const {
  const double gbps = h2d ? cfg_.h2d_gbps : cfg_.d2h_gbps;
  if (gbps <= 0.0) return;
  const double seconds =
      cfg_.latency_us * 1e-6 + static_cast<double>(bytes) / (gbps * 1e9);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

namespace {

void copy_view(MatrixView<const double> src, MatrixView<double> dst) {
  FTH_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
            "transfer dimension mismatch");
  for (index_t j = 0; j < src.cols(); ++j)
    std::copy_n(src.data() + j * src.ld(), src.rows(), dst.data() + j * dst.ld());
}

std::size_t view_bytes(MatrixView<const double> v) {
  return static_cast<std::size_t>(v.rows()) * static_cast<std::size_t>(v.cols()) *
         sizeof(double);
}

}  // namespace

void copy_h2d_async(Stream& s, MatrixView<const double> host, DMatrixView<double> dev) {
  const std::size_t bytes = view_bytes(host);
  const std::uint64_t ticket = s.enqueue(
      "h2d", FTH_TASK_EFFECTS(FTH_READS(host) FTH_WRITES(dev)),
      [host, dev, bytes, d = s.device()] {
        obs::TraceSpan span("device", "h2d", "bytes", static_cast<double>(bytes));
        if (d != nullptr) {
          d->charge_transfer(bytes, /*h2d=*/true);
          d->note_h2d(bytes);
        }
        MatrixView<double> dev_h = dev.in_task();
        copy_view(host, dev_h);
        if (d != nullptr) d->call_transfer_hook(TransferDir::H2D, dev_h);
      });
  // Transfer-routine context: taking the host view's base pointer for
  // registration must not itself count as a racing host access.
  check::TaskScope setup(&s, "h2d", ticket);
  check::on_transfer_enqueued(&s, ticket, /*host_is_dst=*/false, "h2d", host.data(),
                              sizeof(double), host.rows(), host.cols(), host.ld(),
                              dev.raw_data());
}

void copy_d2h_async(Stream& s, DMatrixView<const double> dev, MatrixView<double> host) {
  const std::size_t bytes = view_bytes(host);
  const std::uint64_t ticket = s.enqueue(
      "d2h", FTH_TASK_EFFECTS(FTH_READS(dev) FTH_WRITES(host)),
      [dev, host, bytes, d = s.device()] {
        obs::TraceSpan span("device", "d2h", "bytes", static_cast<double>(bytes));
        if (d != nullptr) {
          d->charge_transfer(bytes, /*h2d=*/false);
          d->note_d2h(bytes);
        }
        copy_view(dev.in_task(), host);
        if (d != nullptr) d->call_transfer_hook(TransferDir::D2H, host);
      });
  check::TaskScope setup(&s, "d2h", ticket);
  check::on_transfer_enqueued(&s, ticket, /*host_is_dst=*/true, "d2h", host.data(),
                              sizeof(double), host.rows(), host.cols(), host.ld(),
                              dev.raw_data());
}

void copy_h2d(Stream& s, MatrixView<const double> host, DMatrixView<double> dev,
              std::source_location loc) {
  copy_h2d_async(s, host, dev);
  s.synchronize(loc);
}

void copy_d2h(Stream& s, DMatrixView<const double> dev, MatrixView<double> host,
              std::source_location loc) {
  copy_d2h_async(s, dev, host);
  s.synchronize(loc);
}

}  // namespace fth::hybrid
