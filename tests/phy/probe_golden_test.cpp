// Bit-exact regression for the probe impairments (paper Section 3.3):
// seeded ChannelEstimator probes (random and random-walk CFO, with the
// AWGN entering with and without a cached normal, across the
// estimator's 64-subcarrier chunk), and LinkWorld probes -- CSI and CIR
// of a link with no traced path (pure noise), and CIR of a link with
// paths. Every value is pinned as a hexfloat.
//
// On the scalar backend the table must match bit for bit: the AWGN and
// the CFO/SFO rotations run through the backend's log/sincos entries,
// which are libm there. On a fast backend only those log and sin/cos
// values may move, so each value must stay within a bound derived from
// the backend's declared log/sincos tolerances (declared_error below).
// The worlds use 8-element gNB arrays. The other backends form their
// steering ramps with the scalar loop, but AVX2 forms them with its
// in-house sincos, so on AVX2 the CIR truth moves too. The bound's
// derivation does not cover that move: an array factor's error scales
// with the sum of |w_i|, not with |v|, so near a beam null it need not
// stay inside the bound. AVX2 passes on measured margin: the largest
// error of a paths_* value is under 0.1% of its bound.
//
// Regenerate ONLY for a deliberate, documented behaviour change: compile
// this file against the libraries that should define the values and run
// it with --gtest_also_run_disabled_tests
// --gtest_filter=ProbeGolden.DISABLED_DumpTable, then paste the printed
// table over kExpected. Libraries older than the log/sincos tolerance
// fields need declared_error's body replaced by `return 0.0;` first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "channel/environment.h"
#include "channel/mobility.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "phy/estimator.h"
#include "phy/link_budget.h"
#include "sim/world.h"

namespace mmr {
namespace {

struct Probe {
  std::string name;
  /// Std of each noise part, sqrt(variance / 2): scales the bound.
  double noise_std = 0.0;
  CVec values;
};

CVec seeded_truth(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  CVec truth(n);
  for (cplx& h : truth) h = 1e-5 * rng.complex_normal();
  return truth;
}

/// Estimator probes. Random CFO draws a uniform and the SFO slope's
/// normal, so the AWGN starts from the slope pair's cached sample; the
/// random walk draws two normals, so it starts on a fresh pair.
void estimator_probes(std::vector<Probe>& out) {
  struct Case {
    const char* name;
    bool random_cfo;
    std::size_t n;
    int probes;
  };
  const Case cases[] = {{"est_random_cfo_n5", true, 5, 2},
                        {"est_walk_cfo_n9", false, 9, 2},
                        {"est_random_cfo_n67", true, 67, 1}};
  std::uint64_t seed = 11;
  for (const Case& c : cases) {
    phy::EstimatorConfig config;
    config.noise_gain_0db = 1e-10;
    config.pilot_averaging_gain = 10.0;
    config.random_cfo_phase = c.random_cfo;
    config.cfo_walk_std_rad = 0.5;
    config.sfo_slope_std_rad = 0.02;
    phy::ChannelEstimator estimator(config, Rng(seed));
    const CVec truth = seeded_truth(100 + seed, c.n);
    const double noise_std = std::sqrt(
        config.noise_gain_0db / config.pilot_averaging_gain / 2.0);
    for (int p = 0; p < c.probes; ++p) {
      out.push_back({std::string(c.name) + "_probe" + std::to_string(p),
                     noise_std, estimator.estimate(truth)});
    }
    ++seed;
  }
}

sim::WorldConfig small_world_config() {
  sim::WorldConfig config;
  config.spec.num_subcarriers = 12;
  return config;
}

/// The probes of one world, in a fixed order, so the world's generator
/// carries its state (cached normal included) from probe to probe. The
/// unpinned probes between the pinned rows draw the noise the table was
/// generated with there, so every pinned row keeps its bits.
void world_probes(const char* prefix, sim::LinkWorld& world,
                  std::vector<Probe>& out) {
  const auto link = world.probe_interface();
  const CVec tx = seeded_truth(7, world.config().tx_ula.num_elements);
  const sim::WorldConfig& config = world.config();
  const double csi_var =
      phy::noise_reference(config.budget) / config.pilot_averaging_gain;
  const double cir_var =
      csi_var / static_cast<double>(config.spec.num_subcarriers);
  const std::string p(prefix);
  if (world.paths().empty()) {
    out.push_back({p + "_csi", std::sqrt(csi_var / 2.0), link.csi(tx)});
    (void)link.csi(tx);  // unpinned
  }
  out.push_back({p + "_cir5", std::sqrt(cir_var / 2.0), link.cir(tx, 5)});
  (void)link.cir(tx, 7);  // unpinned
  out.push_back({p + "_cir6", std::sqrt(cir_var / 2.0), link.cir(tx, 6)});
}

std::vector<Probe> run_probes() {
  std::vector<Probe> out;
  estimator_probes(out);
  // A UE behind the gNB in an empty room: no traced path.
  sim::LinkWorld dark(
      channel::Environment(28e9), channel::Pose{{0.0, 0.0}, 0.0},
      std::make_shared<channel::StaticPose>(channel::Pose{{-5.0, 0.3}, 0.0}),
      small_world_config(), Rng(21));
  EXPECT_TRUE(dark.paths().empty());
  world_probes("nopath", dark, out);
  // LOS plus one wall reflection.
  channel::Environment room(28e9);
  room.add_wall(channel::Wall{{{-2.0, 3.0}, {12.0, 3.0}},
                             channel::Material::concrete()});
  sim::LinkWorld lit(
      room, channel::Pose{{0.0, 0.0}, 0.0},
      std::make_shared<channel::StaticPose>(channel::Pose{{5.0, 1.0}, 3.0}),
      small_world_config(), Rng(22));
  EXPECT_EQ(lit.paths().size(), 2u);
  world_probes("paths", lit, out);
  return out;
}

struct Expected {
  const char* name;
  std::vector<double> parts;  ///< re, im of each value in order
};

// Generated with DISABLED_DumpTable (see the header comment).
const std::vector<Expected> kExpected = {
    {"est_random_cfo_n5_probe0",
     {0x1.76de3c482215ep-19, -0x1.9e47163718db6p-18, 0x1.0ed47ce390edp-21, -0x1.fafbcc4bff7dcp-17,
      0x1.fc40154bb0414p-18, -0x1.08eb5b153d1c3p-17, 0x1.d128aa99913a6p-18, -0x1.1ece23bb43efap-19,
      0x1.2842c138ee5c5p-18, 0x1.389b4568d2582p-20}},
    {"est_random_cfo_n5_probe1",
     {-0x1.b46be285bfc1p-21, 0x1.693fbc011a727p-17, 0x1.efc5944f3a56ep-18, 0x1.dc76f3210f45ap-17,
      -0x1.58ac82ada1175p-18, 0x1.e289ec055745cp-18, -0x1.4511065f4992ep-17, 0x1.2c1e02efa2dc8p-20,
      -0x1.b8a6aa4f4360ap-18, 0x1.60ab52effb53cp-21}},
    {"est_walk_cfo_n9_probe0",
     {0x1.017fafb66c20ep-18, 0x1.9eb563c3b096p-19, 0x1.485bed92d105ap-17, 0x1.864af0c30b756p-17,
      0x1.9a020e39411eap-18, 0x1.02ffd2c23aad2p-20, -0x1.d3edf7e30e48p-21, -0x1.eef5e47ec6686p-18,
      -0x1.9cb08ac19974p-27, -0x1.7bc1c4507c2f6p-19, -0x1.67756a1bcc098p-19, 0x1.8657b1c318604p-17,
      0x1.2506f77effeb1p-19, -0x1.5cd356f9dcda4p-18, -0x1.06e031aa4b235p-16, 0x1.07fb294830eaap-17,
      -0x1.defb8636bcc73p-20, -0x1.185c6247b2cb6p-20}},
    {"est_walk_cfo_n9_probe1",
     {0x1.af18d4f1d55c3p-19, -0x1.a06ff94bf0992p-22, 0x1.6967ea9afcc7fp-17, 0x1.dd5cba5b4b09fp-18,
      0x1.3cf02aff97031p-17, -0x1.1d418492bb24fp-18, -0x1.68110a5c1e777p-19, 0x1.a2573dae2cf38p-26,
      -0x1.6782577b2c9ccp-20, -0x1.706b8abf229bdp-18, 0x1.94ef50b7118d6p-18, 0x1.e8e1a7b9889a6p-17,
      0x1.924364c3b5e1bp-24, -0x1.024c2aaa2d8c4p-19, -0x1.6befbc8582d25p-17, 0x1.4c2f70661bcdbp-17,
      -0x1.ab726281d93dp-18, -0x1.cce60e7e686e8p-24}},
    {"est_random_cfo_n67_probe0",
     {-0x1.1af4fdd372063p-19, 0x1.fc653e871bd39p-21, -0x1.02a45b1e41ee5p-18, 0x1.15e5271243f24p-19,
      0x1.6f4d9ca70807p-18, 0x1.936278eddbbf9p-17, 0x1.a67573b3cf856p-20, 0x1.e31e2fdbb3b7fp-17,
      -0x1.d64efc24a8f15p-18, -0x1.43b62eebffa14p-17, 0x1.f1ccc68e20019p-18, -0x1.6fbca35b7fb9cp-22,
      -0x1.2b92b1f0485bp-17, -0x1.5a8f08981e8ap-19, 0x1.e3f1e158a759bp-21, -0x1.437bb49afa2a3p-19,
      0x1.aede0d26fcbf6p-19, -0x1.9c33e5b931af6p-20, 0x1.3e65b59eb10dfp-20, -0x1.d636b66fb5adfp-20,
      -0x1.534f1acd8872fp-17, 0x1.5741536d2f89cp-18, 0x1.3e90514449584p-19, -0x1.df9acc08e577dp-20,
      0x1.159da7d809e35p-17, 0x1.0b7c22ec39641p-16, 0x1.e379c2a3e4d09p-19, 0x1.80ff38e487a84p-22,
      -0x1.ef916463ec088p-17, -0x1.6f35533b41873p-18, 0x1.b5a8ba9386762p-19, -0x1.31294ae4133aep-18,
      0x1.e260f3be7a35bp-17, -0x1.9e1e9c6e95be2p-19, 0x1.911462d465c2bp-17, 0x1.0e19b3e641138p-20,
      -0x1.4e1d2d879a846p-20, 0x1.08f053faa7d96p-17, -0x1.21a96c73f240ep-18, 0x1.a16627a68e69fp-19,
      0x1.151a77ba5ed78p-20, 0x1.1bd5937a687cep-21, -0x1.7aca5e80b912ep-17, -0x1.c633fd8f4db1cp-18,
      0x1.403896ce39011p-17, -0x1.dcd80c8ba0004p-18, 0x1.d454292173f4ep-18, -0x1.504336731a91ep-18,
      -0x1.4fc027ec0bdd8p-18, -0x1.5e92342066fccp-21, 0x1.4a0636c5bb72ap-17, 0x1.cb64594f28108p-21,
      -0x1.5df1d1c8e103cp-19, -0x1.587af2221b3d2p-17, 0x1.84cd3fc761176p-18, -0x1.0b52cc47887b6p-16,
      -0x1.5c1e7c5b41429p-17, -0x1.cdc014f6a2124p-17, -0x1.0324530ed6a09p-18, 0x1.acb557c6ad66p-19,
      -0x1.19caa8859c42dp-19, -0x1.cd547be60f8d6p-21, -0x1.3c4632003375cp-21, 0x1.02f03be38e411p-19,
      -0x1.d9dde65f9a0c8p-19, 0x1.3e23be9e66115p-18, 0x1.55c1eb1954ae7p-18, -0x1.d34b74b5bfbcbp-17,
      -0x1.c339fd034fb0ep-18, -0x1.107a981f0a4bdp-17, -0x1.c70d37be7c225p-19, -0x1.7c75ce87e8009p-19,
      0x1.201d145d08d37p-20, -0x1.4a6bad5e2861dp-18, -0x1.ee64afc0264ddp-19, 0x1.5f42ec8f9f61p-23,
      0x1.39e41aaa4fb6dp-18, -0x1.7d3d87cec2fcfp-17, 0x1.22b49de764d06p-18, -0x1.cc19e8ae8b4f6p-20,
      0x1.60f3d601ec286p-18, 0x1.60051f9801451p-18, -0x1.cafd2dba3a26ap-19, 0x1.a4289dc22cc2fp-17,
      0x1.5fff3c95ae1d6p-19, 0x1.b692edfce2afap-22, -0x1.2d20f36d0670ap-17, 0x1.adaecd6af0418p-19,
      -0x1.8fd9ec599c2f3p-17, -0x1.46e2355407625p-18, -0x1.edef26f8e4984p-18, 0x1.0418e2d5057dp-16,
      -0x1.9c695484d9c12p-19, -0x1.76beeeb004e3cp-18, 0x1.fbc1f0b870c54p-19, -0x1.6d9cc3aa3579ep-19,
      -0x1.ebd57da9411cap-18, 0x1.633b1369b293ep-17, 0x1.d7d4f554fdc56p-19, 0x1.7a209d542d8dep-17,
      -0x1.3231025b48ed4p-23, -0x1.e0686d953c454p-19, -0x1.6de40f4da7b8ap-16, 0x1.1aada7f6806ep-21,
      -0x1.090bb3d243c9ap-16, 0x1.1b32193c4a672p-19, -0x1.6f1c6af0ca19ep-17, 0x1.3c900da91fc86p-19,
      -0x1.c479f1f187722p-17, 0x1.80e6ffcbb1f7fp-19, 0x1.0d3e8ca501aep-21, -0x1.92511d47cd34ap-18,
      0x1.e0851501b76d6p-18, -0x1.e87fe97303e58p-22, -0x1.0ac81688c6cadp-18, 0x1.80809af2391d6p-19,
      0x1.37eac7e5a4664p-19, 0x1.2e6d4d63ca705p-17, -0x1.588a80ddd243ep-17, -0x1.57f5c7a112bdcp-17,
      0x1.0b954c944e48ap-17, 0x1.197ccd98111f4p-18, 0x1.285f6d1ae96fcp-19, 0x1.0d5aa25fe6d7cp-20,
      0x1.dc6e19b78fe36p-17, -0x1.0cc42d37be002p-16, -0x1.7d3183be1e75ep-18, 0x1.062fb5a9b02ebp-17,
      0x1.1f5c492180a67p-17, 0x1.0744893772075p-17, 0x1.15fcd06df786dp-17, -0x1.c2b0a9f0f1f37p-17,
      0x1.d3721b859d5p-23, 0x1.44c112dfe4889p-16}},
    {"nopath_csi",
     {-0x1.0ed4c55a7385dp-21, -0x1.4abf4f2f38b9ep-19, 0x1.444470491acf4p-20, -0x1.2bf0ed8a66e34p-19,
      -0x1.600f4db0d2814p-20, 0x1.55bf476676ea8p-20, -0x1.0fb3c4c4fc06fp-22, -0x1.b301da98b91cfp-22,
      -0x1.7c3bcf4134255p-19, -0x1.ca027f9d5da4fp-20, 0x1.1e3776773ae19p-20, 0x1.5432e5f75f59bp-19,
      0x1.dd4bf0a5ce2abp-22, 0x1.26419ebf9d25bp-22, 0x1.a65b14ae55018p-22, 0x1.27dbdc71ccbcap-19,
      -0x1.b253f84d7f424p-20, -0x1.02429b077596fp-22, -0x1.47fc98225e82fp-21, -0x1.333394e8c035dp-19,
      -0x1.160ed6a54eeddp-21, 0x1.989f1175f0203p-20, -0x1.8c881a971ba1ap-21, -0x1.967b01abbce7bp-20}},
    {"nopath_cir5",
     {-0x1.6bfd3eb3feb1p-22, -0x1.9dee161b5e165p-23, -0x1.b39dde69c9039p-21, -0x1.377751cbc1b35p-22,
      0x1.4a87ca8c44f53p-24, -0x1.5cb848c79cf7p-21, 0x1.498f8ed50ee84p-20, -0x1.abba38b7a9f9cp-23,
      0x1.08d5e4a0d5be6p-23, -0x1.c720898c192dcp-23}},
    {"nopath_cir6",
     {0x1.7383054be4cdcp-21, -0x1.6fdffa9161404p-23, -0x1.c6a454a7c8b6ep-22, -0x1.add1bd58e1a5dp-22,
      0x1.45f6bce85074fp-21, 0x1.370d3c1a02986p-23, 0x1.bc6ee2ba63418p-21, -0x1.758d2e2a43089p-25,
      0x1.831cf5b418fbp-23, 0x1.f420cdc49c9e1p-22, -0x1.3fb5a206004f2p-25, 0x1.1baa37ec6662cp-22}},
    {"paths_cir5",
     {0x1.3e2d8314c1d51p-22, -0x1.3aa702c9438efp-25, 0x1.0e8f7da156df7p-21, -0x1.2a4367683086fp-21,
      0x1.4347644f3964cp-20, -0x1.53b0731bff32cp-25, 0x1.06aa20b4ebdcfp-22, 0x1.36db62f2ec38ap-21,
      -0x1.41c07d32345c5p-21, -0x1.8b191d8768dcp-22}},
    {"paths_cir6",
     {0x1.7765f14afc0bep-22, 0x1.d18d1b90ac367p-23, -0x1.52dd18e31486bp-21, -0x1.8adc258fb566bp-23,
      -0x1.3e20a7cf2184dp-21, -0x1.3119d6d169802p-23, 0x1.16a5c352ae22ep-22, -0x1.214d9c7f6e309p-25,
      0x1.643285414ce7ap-21, 0x1.36d4e52eff7d9p-21, -0x1.0fc41529cf5dp-22, -0x1.82ea0b81968f6p-20}},
};

/// Per-unit error the backend's declared log/sincos tolerances allow in a
/// transcendental: a log relative error, and a sin/cos error relative to
/// the unit scale.
double declared_error(dsp::Backend backend) {
  const dsp::KernelTolerances tol = dsp::tolerances(backend);
  const double ulp = 0x1.0p-52;
  return static_cast<double>(tol.log.max_ulp) * ulp +
         static_cast<double>(tol.sincos.max_ulp) * ulp + tol.sincos.abs_tol;
}

std::string hexfloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(ProbeGolden, ScalarBackendIsBitIdentical) {
  dsp::ScopedBackend scalar(dsp::Backend::kScalar);
  ASSERT_TRUE(scalar.ok());
  const std::vector<Probe> probes = run_probes();
  ASSERT_EQ(probes.size(), kExpected.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE(probes[i].name);
    ASSERT_EQ(probes[i].name, kExpected[i].name);
    ASSERT_EQ(2 * probes[i].values.size(), kExpected[i].parts.size());
    for (std::size_t k = 0; k < probes[i].values.size(); ++k) {
      EXPECT_EQ(hexfloat(probes[i].values[k].real()),
                hexfloat(kExpected[i].parts[2 * k]))
          << "Re value " << k;
      EXPECT_EQ(hexfloat(probes[i].values[k].imag()),
                hexfloat(kExpected[i].parts[2 * k + 1]))
          << "Im value " << k;
    }
  }
}

TEST(ProbeGolden, FastBackendsStayWithinTheDeclaredTolerances) {
  // A probe value is (t + s z) rot or c rot + s z, with z = r cos or
  // r sin, r = sqrt(-2 log u1) <= zmax. An error e per unit in log and
  // sin/cos moves z by at most zmax (e / 2 + e) and rot by e per part,
  // and the composition rounds a few more ulps; 4 e (|v| + 2 s zmax)
  // covers all of it.
  const double zmax = std::sqrt(-2.0 * std::log(0x1.0p-53));
  for (const dsp::Backend backend : dsp::compiled_backends()) {
    if (backend == dsp::Backend::kScalar || !dsp::backend_supported(backend)) {
      continue;
    }
    SCOPED_TRACE(std::string(dsp::backend_name(backend)));
    const double e = declared_error(backend) + 4.0 * 0x1.0p-52;
    dsp::ScopedBackend scoped(backend);
    ASSERT_TRUE(scoped.ok());
    const std::vector<Probe> probes = run_probes();
    ASSERT_EQ(probes.size(), kExpected.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      SCOPED_TRACE(probes[i].name);
      ASSERT_EQ(2 * probes[i].values.size(), kExpected[i].parts.size());
      for (std::size_t k = 0; k < probes[i].values.size(); ++k) {
        const cplx want(kExpected[i].parts[2 * k],
                        kExpected[i].parts[2 * k + 1]);
        const double bound =
            4.0 * e * (std::abs(want) + 2.0 * probes[i].noise_std * zmax);
        EXPECT_LE(std::abs(probes[i].values[k] - want), bound)
            << "value " << k;
      }
    }
  }
}

TEST(ProbeGolden, DISABLED_DumpTable) {
  dsp::ScopedBackend scalar(dsp::Backend::kScalar);
  for (const Probe& p : run_probes()) {
    std::printf("    {\"%s\",\n     {", p.name.c_str());
    for (std::size_t k = 0; k < p.values.size(); ++k) {
      std::printf("%s%a, %a", k == 0 ? "" : (k % 2 == 0 ? ",\n      " : ", "),
                  p.values[k].real(), p.values[k].imag());
    }
    std::printf("}},\n");
  }
}

}  // namespace
}  // namespace mmr
