// Structure-of-arrays batch evaluation of BSIMSOI MOSFET instances.
//
// DeviceBatch holds the bind-time parameter SoA for a fixed set of device
// instances (an instance is one MOSFET of a circuit, in element order).
// Per Newton iteration the caller stages the instances whose terminal
// voltages actually changed, calls eval() once, and reads back
// per-instance ModelOutput identical in meaning to bsimsoi::eval — the
// assembly loop then scatters them through the cached AssemblyPlan
// exactly as before.
//
// All storage is sized at bind(); staging and eval are allocation-free,
// preserving the steady-state zero-allocation contract of the transient
// loop (DESIGN.md §5.8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bsimsoi/batch_kernel.h"
#include "bsimsoi/model.h"
#include "bsimsoi/params.h"
#include "bsimsoi/simd.h"

namespace mivtx::bsimsoi {

class DeviceBatch {
 public:
  // Precompute the parameter SoA for one instance per card (cards may
  // repeat and may outlive only the bind call itself) and pick the kernel
  // for `level` (capped at what is compiled in / supported).
  void bind(const std::vector<const SoiModelCard*>& cards, SimdLevel level);

  std::size_t instances() const { return count_; }
  SimdLevel level() const { return level_; }

  // Staging protocol: clear, stage each changed instance with its terminal
  // voltages, eval once.  Instances not staged keep their previous output.
  void clear_active() { active_count_ = 0; }
  void stage(std::size_t i, double vg, double vd, double vs) {
    const std::size_t a = active_count_++;
    active_[a] = static_cast<std::uint32_t>(i);
    avg_[a] = vg;
    avd_[a] = vd;
    avs_[a] = vs;
  }
  std::size_t active_count() const { return active_count_; }

  // Evaluate all staged instances in blocks of kLaneWidth; a partial final
  // block replicates its last instance into the unused lanes.  Returns the
  // number of kernel blocks dispatched (for lane-occupancy metrics).
  std::size_t eval();

  const ModelOutput& output(std::size_t i) const { return out_[i]; }

 private:
  std::size_t count_ = 0;
  SimdLevel level_ = SimdLevel::kScalarLane;
  void (*fn_)(const kernel::KernelBlock&, kernel::KernelOut&) = nullptr;

  // params_[p] is the per-instance array of kernel parameter p.
  std::vector<double> params_[kernel::kNumParams];
  std::vector<std::uint32_t> active_;
  std::vector<double> avg_, avd_, avs_;
  std::size_t active_count_ = 0;
  std::vector<ModelOutput> out_;
};

}  // namespace mivtx::bsimsoi
