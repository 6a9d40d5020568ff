// Top-level flows: model library, reference cards, PPA engine, and a
// fast end-to-end TCAD -> extraction integration run.
#include <gtest/gtest.h>

#include <cmath>

#include "bsimsoi/model.h"
#include "common/error.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/liberty.h"
#include "core/variability.h"
#include "core/reference_cards.h"
#include "core/technology.h"

namespace mivtx::core {
namespace {

TEST(Technology, DeviceKeys) {
  EXPECT_EQ(device_key(Variant::kTraditional, Polarity::kNmos), "nmos_trad");
  EXPECT_EQ(device_key(Variant::kMiv4Channel, Polarity::kPmos), "pmos_4ch");
  EXPECT_EQ(all_variants().size(), 4u);
}

TEST(Technology, SpecsInheritProcess) {
  ProcessParams p;
  p.l_gate = 30e-9;
  p.w_src = 100e-9;
  const tcad::DeviceSpec spec =
      device_spec(p, Variant::kMiv2Channel, Polarity::kPmos);
  EXPECT_DOUBLE_EQ(spec.l_gate, 30e-9);
  EXPECT_DOUBLE_EQ(spec.w_total, 100e-9);
  EXPECT_EQ(spec.polarity, tcad::Polarity::kPmos);
  EXPECT_GT(spec.miv_coverage, 0.0);

  const bsimsoi::SoiModelCard card =
      initial_card(p, Variant::kMiv2Channel, Polarity::kPmos);
  EXPECT_EQ(card.nf, 2);
  EXPECT_LT(card.vth0, 0.0);
  EXPECT_DOUBLE_EQ(card.l, 30e-9);
}

TEST(ModelLibrary, PutGetRoundTrip) {
  ModelLibrary lib;
  bsimsoi::SoiModelCard c;
  c.vth0 = 0.123;
  lib.put(Variant::kTraditional, Polarity::kNmos, c);
  EXPECT_TRUE(lib.has(Variant::kTraditional, Polarity::kNmos));
  EXPECT_FALSE(lib.has(Variant::kMiv1Channel, Polarity::kNmos));
  EXPECT_DOUBLE_EQ(
      lib.card(Variant::kTraditional, Polarity::kNmos).vth0, 0.123);
  EXPECT_THROW(lib.card(Variant::kMiv1Channel, Polarity::kPmos),
               mivtx::Error);
}

TEST(ModelLibrary, TextRoundTrip) {
  ModelLibrary lib;
  bsimsoi::SoiModelCard c;
  c.vth0 = 0.31;
  c.u0 = 0.042;
  lib.put(Variant::kMiv1Channel, Polarity::kNmos, c);
  c.polarity = bsimsoi::Polarity::kPmos;
  c.vth0 = -0.29;
  lib.put(Variant::kMiv1Channel, Polarity::kPmos, c);
  const ModelLibrary back = ModelLibrary::from_text(lib.to_text());
  EXPECT_EQ(back.size(), 2u);
  EXPECT_NEAR(back.card(Variant::kMiv1Channel, Polarity::kNmos).u0, 0.042,
              1e-12);
  EXPECT_NEAR(back.card(Variant::kMiv1Channel, Polarity::kPmos).vth0, -0.29,
              1e-9);
}

TEST(ReferenceCards, AllEightPresentAndHealthy) {
  const ModelLibrary& lib = reference_model_library();
  EXPECT_EQ(lib.size(), 8u);
  for (Polarity pol : {Polarity::kNmos, Polarity::kPmos}) {
    for (Variant v : all_variants()) {
      ASSERT_TRUE(lib.has(v, pol)) << device_key(v, pol);
      const auto& card = lib.card(v, pol);
      EXPECT_EQ(card.level, 70);
      // Each card drives a healthy on-current at |Vgs|=|Vds|=1 V.
      const double s = pol == Polarity::kNmos ? 1.0 : -1.0;
      const double ion =
          std::fabs(bsimsoi::eval(card, s * 1.0, s * 1.0, 0.0).ids);
      EXPECT_GT(ion, 1e-5) << device_key(v, pol);
      EXPECT_LT(ion, 1e-3) << device_key(v, pol);
    }
  }
}

TEST(ReferenceCards, MivVariantsStrongerExceptFourChannel) {
  const ModelLibrary& lib = reference_model_library();
  auto ieff = [&](Variant v) {
    const auto& c = lib.card(v, Polarity::kNmos);
    return 0.5 * (std::fabs(bsimsoi::eval(c, 0.5, 1.0, 0.0).ids) +
                  std::fabs(bsimsoi::eval(c, 1.0, 0.5, 0.0).ids));
  };
  const double trad = ieff(Variant::kTraditional);
  EXPECT_GT(ieff(Variant::kMiv1Channel), trad);
  EXPECT_GT(ieff(Variant::kMiv2Channel), trad);
  EXPECT_LT(ieff(Variant::kMiv4Channel), trad);
}

TEST(PpaEngine, SensitizationFindsTogglingAssignments) {
  for (cells::CellType type : cells::all_cells()) {
    const std::size_t n = cells::cell_num_inputs(type);
    for (std::size_t pin = 0; pin < n; ++pin) {
      const auto side = PpaEngine::sensitize(type, pin);
      ASSERT_TRUE(side.has_value()) << cells::cell_name(type) << " pin " << pin;
      std::vector<bool> in = *side;
      in[pin] = false;
      const bool f0 = cells::cell_logic(type, in);
      in[pin] = true;
      const bool f1 = cells::cell_logic(type, in);
      EXPECT_NE(f0, f1) << cells::cell_name(type) << " pin " << pin;
    }
  }
}

TEST(PpaEngine, ModelSetUsesTraditionalPmos) {
  PpaEngine engine(reference_model_library());
  const cells::ModelSet set =
      engine.model_set(cells::Implementation::kMiv2Channel);
  EXPECT_EQ(set.nmos.name, "nmos_2ch");
  EXPECT_EQ(set.pmos.name, "pmos_trad");
}

TEST(PpaEngine, InverterMeasurementPlausible) {
  PpaEngine engine(reference_model_library());
  const CellPpa ppa =
      engine.measure(cells::CellType::kInv1, cells::Implementation::k2D);
  ASSERT_TRUE(ppa.ok);
  EXPECT_GT(ppa.delay, 1e-12);
  EXPECT_LT(ppa.delay, 1e-10);
  EXPECT_GT(ppa.power, 1e-8);
  EXPECT_LT(ppa.power, 1e-4);
  EXPECT_GT(ppa.area, 0.0);
  EXPECT_NEAR(ppa.pdp, ppa.delay * ppa.power, 1e-25);
  // One pin, two edges.
  EXPECT_EQ(ppa.arcs.size(), 2u);
}

TEST(PpaEngine, TwoChannelInverterFasterThan2D) {
  PpaEngine engine(reference_model_library());
  const CellPpa two_d =
      engine.measure(cells::CellType::kInv1, cells::Implementation::k2D);
  const CellPpa two_ch = engine.measure(cells::CellType::kInv1,
                                        cells::Implementation::kMiv2Channel);
  ASSERT_TRUE(two_d.ok);
  ASSERT_TRUE(two_ch.ok);
  EXPECT_LT(two_ch.delay, two_d.delay);
  EXPECT_LT(two_ch.area, two_d.area);
}

TEST(Summarize, AveragesPerImplementation) {
  std::vector<CellPpa> all;
  for (int i = 0; i < 3; ++i) {
    CellPpa c;
    c.impl = cells::Implementation::k2D;
    c.ok = true;
    c.delay = 1.0 + i;
    c.power = 2.0;
    c.area = 4.0;
    c.pdp = c.delay * c.power;
    all.push_back(c);
  }
  const auto summaries = summarize(all);
  ASSERT_EQ(summaries.size(), 4u);
  EXPECT_DOUBLE_EQ(summaries[0].mean_delay, 2.0);
  EXPECT_DOUBLE_EQ(summaries[0].mean_power, 2.0);
  // Implementations with no data report zeros.
  EXPECT_DOUBLE_EQ(summaries[1].mean_delay, 0.0);
}

TEST(Variability, PerturbCardShiftsMagnitudes) {
  bsimsoi::SoiModelCard n;
  n.vth0 = 0.35;
  n.u0 = 0.03;
  const bsimsoi::SoiModelCard up = perturb_card(n, +0.02, 1.1);
  EXPECT_NEAR(up.vth0, 0.37, 1e-12);
  EXPECT_NEAR(up.u0, 0.033, 1e-12);
  bsimsoi::SoiModelCard p = n;
  p.polarity = bsimsoi::Polarity::kPmos;
  p.vth0 = -0.35;
  const bsimsoi::SoiModelCard pd = perturb_card(p, +0.02, 1.0);
  EXPECT_NEAR(pd.vth0, -0.37, 1e-12);  // magnitude shift keeps the sign
}

TEST(Variability, SmallRunProducesSaneStatistics) {
  core::VariationSpec spec;
  spec.samples = 5;
  const VariabilityStats s =
      run_variability(reference_model_library(), cells::CellType::kInv1,
                      cells::Implementation::k2D, spec);
  EXPECT_EQ(s.samples, 5u);
  EXPECT_GT(s.mean_delay, 1e-12);
  EXPECT_GT(s.sigma_delay, 0.0);
  EXPECT_GE(s.worst_delay, s.mean_delay);
  EXPECT_GT(s.mean_power, 0.0);
  // Deterministic under the same seed.
  const VariabilityStats again =
      run_variability(reference_model_library(), cells::CellType::kInv1,
                      cells::Implementation::k2D, spec);
  EXPECT_DOUBLE_EQ(s.mean_delay, again.mean_delay);
  EXPECT_DOUBLE_EQ(s.sigma_delay, again.sigma_delay);
}

TEST(Liberty, ExportIsStructurallySound) {
  // Build a cheap synthetic timing model (no transient runs needed).
  gatelevel::TimingModel timing;
  timing.c_ref = 1e-15;
  for (cells::Implementation impl : cells::all_implementations()) {
    timing.load_slope[impl] = 5e3;  // 5 ps / fF
    for (cells::CellType t : cells::all_cells()) {
      timing.cells[impl][t] = gatelevel::CellTiming{20e-12, 0.4e-15};
    }
  }
  const std::string lib =
      export_liberty(timing, cells::Implementation::kMiv2Channel);
  // Braces balance.
  long depth = 0;
  for (char c : lib) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // All 14 cells and their functions are present.
  for (cells::CellType t : cells::all_cells()) {
    EXPECT_NE(lib.find(std::string("cell (") + cells::cell_name(t) + ")"),
              std::string::npos)
        << cells::cell_name(t);
  }
  EXPECT_NE(lib.find("function : \"!(A*B)\""), std::string::npos);
  EXPECT_NE(lib.find("library (mivtx_2_ch)"), std::string::npos);
  EXPECT_NE(lib.find("capacitance : 0.4000"), std::string::npos);
}

// End-to-end integration on a coarse grid: TCAD characterization of one
// device plus extraction completes and fits within Table III-like error.
TEST(FlowIntegration, SingleDeviceCharacterizeAndExtract) {
  ProcessParams proc;
  extract::SweepGrid grid;
  grid.n_vg = 9;
  grid.n_vd = 9;
  grid.n_cv = 7;
  grid.idvd_vgs = {0.6, 1.0};
  const extract::CharacteristicSet data =
      characterize_device(proc, Variant::kTraditional, Polarity::kNmos, grid);
  EXPECT_EQ(data.idvg_low.size(), 9u);
  EXPECT_EQ(data.idvd.size(), 2u);
  // Ion/Ioff sanity straight from TCAD.
  EXPECT_GT(data.idvg_high.back().y, 1e-5);
  EXPECT_LT(data.idvg_high.front().y, 1e-8);

  extract::ExtractionOptions opts;
  opts.nm.max_evaluations = 2000;
  const extract::ExtractionReport rep =
      extract::extract_card(data, initial_card(proc, Variant::kTraditional,
                                               Polarity::kNmos),
                            opts);
  EXPECT_LT(rep.errors.idvg, 0.12);
  EXPECT_LT(rep.errors.idvd, 0.12);
  EXPECT_LT(rep.errors.cv, 0.12);
}

}  // namespace
}  // namespace mivtx::core
