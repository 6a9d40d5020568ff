// Process-variation extension: Monte-Carlo sampling of threshold voltage
// and mobility on the extracted cards, propagated through transient cell
// simulation.  Answers a question the paper leaves open - whether the
// small MIV-transistor delay advantages survive local variation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ppa.h"

namespace mivtx::core {

struct VariationSpec {
  // 1-sigma local variation applied per sample (global, all devices of the
  // cell shifted together - the pessimistic correlated case).
  double sigma_vth = 0.015;   // V; AVt/sqrt(WL)-flavored magnitude
  double sigma_u0_rel = 0.03; // relative mobility variation
  std::size_t samples = 25;
  std::uint64_t seed = 0x5eed;
};

struct VariabilityStats {
  cells::CellType type = cells::CellType::kInv1;
  cells::Implementation impl = cells::Implementation::k2D;
  std::size_t samples = 0;
  double mean_delay = 0.0;   // s
  double sigma_delay = 0.0;  // s
  double worst_delay = 0.0;  // s (max over samples)
  double mean_power = 0.0;   // W
};

// Sample-perturbed copies of a card (VTH0 shifted, U0 scaled).
bsimsoi::SoiModelCard perturb_card(const bsimsoi::SoiModelCard& card,
                                   double dvth, double u0_scale);

// Monte-Carlo delay/power distribution of one cell/implementation.
// Each sample draws from its own counter-based Rng stream
// (rng.split(sample)), so the sequence of perturbations - and therefore
// every statistic - is identical whether samples run serially or fan out
// across `exec.pool` in any interleaving.
VariabilityStats run_variability(const ModelLibrary& library,
                                 cells::CellType type,
                                 cells::Implementation impl,
                                 const VariationSpec& spec = {},
                                 const PpaOptions& ppa_opts = {},
                                 const runtime::ExecPolicy& exec = {});

}  // namespace mivtx::core
