// Byte pin for the paper's direct-solver and refinement grids (Figs 8–9,
// Tables II–III): every Table I matrix, plain and rescaled, runs through
// run_cholesky_experiment and run_ir_experiment at a size cap this test
// fixes itself, and the FNV-1a 64 digest of each row's JSON must equal the
// checked-in table below.  Any change to a factor bit, status, residual or
// refinement history shows up as a digest mismatch.  A second table pins
// the other refinement rows the same way: the general suite through lu_ir
// and gmres_ir, and Table I through ir with a double-double residual.
//
// The tables were produced by this test's own output.  To regenerate them
// after an intended change of results, run the test and copy the "row"
// lines from the failure messages.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "matrices/suite.hpp"

namespace {

using namespace pstab;

// Independent of PSTAB_SIZE_CAP: the matrices are generated here directly.
// 200 is above la::blocked::kAutoMinN, so the Auto schedule is the blocked
// one and the table pins it as well as the unblocked reference loops.
constexpr int kSizeCap = 200;

struct GoldenRow {
  const char* matrix;
  std::uint64_t chol, chol_rescaled, ir, ir_higham;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"1138_bus", 0xc571b056384356ceull, 0x4cd03482f8e22881ull, 0x4ee1c4865fcffec1ull, 0xec7cf1796af8303aull},
    {"494_bus", 0x6b92a911dfa86c9dull, 0x3470299a9ae849d2ull, 0x990b8aa24d208a7eull, 0xc47b19098b90a3c2ull},
    {"662_bus", 0xcd045574865d8ab2ull, 0x33dc20af9866f6c7ull, 0x7e32932701cc7c06ull, 0x7b428c2094ee63f5ull},
    {"685_bus", 0x8b875d1683977a56ull, 0x751d552eff1df2a3ull, 0xc2e84ad13af35c52ull, 0x99a9d1b00bbd7e1dull},
    {"bcsstk01", 0xca05ac8e07f2c3ceull, 0x9fcef21d0e25175bull, 0xa4354180fb22b3a1ull, 0xedd6bb4b638813f2ull},
    {"bcsstk02", 0x4751ebb1344f1319ull, 0x00b5ee8d1d545dc5ull, 0x7006526dbba3bd3cull, 0x65ff7c9bff5b8329ull},
    {"bcsstk06", 0xe9be6800cf207fd3ull, 0xa7f363c0747d3f4bull, 0x1b2f7f1b22da7832ull, 0x47fedf3d180c3a94ull},
    {"bcsstk08", 0x926c05f9a871c1fdull, 0x6d079a9325149f20ull, 0x65b69614ef1542f5ull, 0x02a1ff9da9cddcf1ull},
    {"bcsstk09", 0x80903f02c5bcfd66ull, 0x3ff162f9f80939d1ull, 0x59e0c9d70d88eea6ull, 0x36449b269499684dull},
    {"bcsstk22", 0x873196c88ff512b2ull, 0x68fd688f7add6823ull, 0x8fc830bf09cc3a84ull, 0x7b11364a52b9db95ull},
    {"lund_a", 0x114e3a3e600d8376ull, 0x41644fe07383d8c8ull, 0x6e8ce17eba2474dcull, 0xb903745179ee36f4ull},
    {"lund_b", 0x3c1c43ff802da382ull, 0xd2b20215496345f4ull, 0xf88250a88d4de264ull, 0x22b1f3a98dcba1f6ull},
    {"mhd416b", 0x9ed01f323f49c26full, 0x08dbc433b2b61db5ull, 0xdd9d9c88f7d9cb1full, 0xa3b27ce7f952f6dcull},
    {"msc00726", 0x90215ddd91cb1a53ull, 0x4dbf4ea33a8822deull, 0xc7aa77ca5d3e7dd3ull, 0x54fa4a8af600317full},
    {"nos1", 0x53abc597d508799bull, 0x5e48357b69297bb1ull, 0x411499de463187ffull, 0x3ee624d697ee28edull},
    {"nos2", 0x2fd36a30fca63e6cull, 0x28653162f675e749ull, 0x94749441ef4d8fdcull, 0xe00fe37849dff7c0ull},
    {"nos5", 0x8bf28422b58e35f5ull, 0x5a5a43e8f38f73a8ull, 0x871745d335bdacabull, 0xd4d8865c681e84dfull},
    {"nos6", 0x3dab76934c8b1855ull, 0xbecec47a827a48cfull, 0xb177bafac4ce5ca0ull, 0xccb58e86408eba54ull},
    {"plat362", 0xbceb18c38c40821bull, 0x716b35fa703270c0ull, 0xd968917527c3f2b5ull, 0xb6ae8931cd479931ull},
};
// clang-format on

// {matrix, row kind, plain, rescaled}: "lu_ir" and "gmres_ir" rows of the
// general suite (rescaled = two-sided equilibration), and "ir_dd" rows of
// Table I (ir with precision.residual = "dd"; rescaled = Higham scaling).
struct GoldenRefineRow {
  const char* matrix;
  const char* kind;
  std::uint64_t plain, rescaled;
};

// clang-format off
constexpr GoldenRefineRow kGoldenRefine[] = {
    {"gre_216a", "lu_ir", 0xd27dd573e76e6da4ull, 0x9dd6c4e158b1f3b3ull},
    {"bwm200", "lu_ir", 0x939b7ae3748b8b70ull, 0xf4394401862a11daull},
    {"mcfe", "lu_ir", 0xc1750bcebf0a19beull, 0xcb548ebdd4851ec3ull},
    {"nnc261", "lu_ir", 0x722ab67b17fdd943ull, 0x13c1504ea911c7bdull},
    {"west0132", "lu_ir", 0xc5a87fa922343019ull, 0x79b32fea3d7cff09ull},
    {"fs_183_1", "lu_ir", 0x46213c2559e0fc5full, 0x33c6faebf58447d9ull},
    {"pores_2", "lu_ir", 0xb7a4fdf44617b5b8ull, 0x2348b44bc2d0b050ull},
    {"steam1", "lu_ir", 0x4dbe763cda54f4f3ull, 0x3ba5f456dee5e25dull},
    {"gre_216a", "gmres_ir", 0x0186518e6b29def7ull, 0x81268e956dff573aull},
    {"bwm200", "gmres_ir", 0x99ada6b259ac0478ull, 0x6ec8a2359e6b8e48ull},
    {"mcfe", "gmres_ir", 0x921277e7e4c8b016ull, 0x16b8c020cf5c0aa0ull},
    {"nnc261", "gmres_ir", 0x35eaee0fe9da0370ull, 0xe6f15990f8d18885ull},
    {"west0132", "gmres_ir", 0x14be701ec9817fafull, 0xd50542df7419a120ull},
    {"fs_183_1", "gmres_ir", 0x563d5e51f96d8796ull, 0x67f1385416d9daf2ull},
    {"pores_2", "gmres_ir", 0x3f5c8d556c4ccd41ull, 0xfc6406e881ff204full},
    {"steam1", "gmres_ir", 0x1232381337480c44ull, 0xf0d90e82009f8d8full},
    {"plat362", "ir_dd", 0xae6a29880a75e187ull, 0x0e8d230ec389982bull},
    {"mhd416b", "ir_dd", 0xdd9d9c88f7d9cb1full, 0x56ff9571e7253c7full},
    {"662_bus", "ir_dd", 0x10f1bf6e8245a201ull, 0x179981fd84e6fa7cull},
    {"lund_b", "ir_dd", 0x52b699d0ee62bc74ull, 0x27651fd46bc588d8ull},
    {"bcsstk02", "ir_dd", 0xcac1587b31515d2bull, 0xa8bb9091d2e6c54full},
    {"685_bus", "ir_dd", 0x5aaad16f0a304a32ull, 0x391a2510fed3f0e7ull},
    {"1138_bus", "ir_dd", 0x4ee1c4865fcffec1ull, 0xb48c68aa831104aeull},
    {"494_bus", "ir_dd", 0xa484ea68914004baull, 0xc8925d6acf663cf8ull},
    {"nos5", "ir_dd", 0x68fa0120d11b110dull, 0xb6a0a09acb988e22ull},
    {"bcsstk22", "ir_dd", 0x24da47fca922c74dull, 0xed211efbdcb2ce2full},
    {"nos6", "ir_dd", 0xb177bafac4ce5ca0ull, 0xcfe1bcbbec1043b1ull},
    {"bcsstk09", "ir_dd", 0x0bda366fa494a92aull, 0x4324f5fc83e8a534ull},
    {"lund_a", "ir_dd", 0xd40625c0d7ff39d1ull, 0x1247f193e454e377ull},
    {"nos1", "ir_dd", 0x411499de463187ffull, 0x5e76e4c6533e2f4bull},
    {"bcsstk01", "ir_dd", 0x608f4d0a6355d5f0ull, 0x403b8a50cd50fa24ull},
    {"bcsstk06", "ir_dd", 0x3ebbdb8e43e65d4full, 0x471ef2f3a2786366ull},
    {"msc00726", "ir_dd", 0xad7915904f420f9aull, 0x1fecb7588eb375c8ull},
    {"bcsstk08", "ir_dd", 0x1d801f45c8e04b60ull, 0x2438700e23fc245aull},
    {"nos2", "ir_dd", 0xd00503a65a070918ull, 0xfbbff9bbd500475dull},
};
// clang-format on

std::uint64_t digest(const std::string& s) {
  return fnv1a64(s.data(), s.size());
}

std::string format_row(const std::string& name, const std::uint64_t d[4]) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "row {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                name.c_str(), d[0], d[1], d[2], d[3]);
  return buf;
}

class GoldenRowsP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenRowsP, CholeskyAndIrRowsMatchTheTable) {
  const matrices::MatrixSpec& spec = matrices::table1_specs()[GetParam()];
  const matrices::GeneratedMatrix m = matrices::generate_spd(spec, kSizeCap);
  std::uint64_t d[4];
  for (int rescale = 0; rescale < 2; ++rescale) {
    core::SolveRequest req;
    req.rescale = rescale != 0;
    req.record_history = true;
    d[rescale] = digest(core::cholesky_row_json(
        core::run_cholesky_experiment(m, req)));
    d[2 + rescale] =
        digest(core::ir_row_json(core::run_ir_experiment(m, req)));
  }
  const GoldenRow* want = nullptr;
  for (const GoldenRow& g : kGolden)
    if (spec.name == g.matrix) want = &g;
  ASSERT_NE(want, nullptr) << "no golden row; computed:\n"
                           << format_row(spec.name, d);
  EXPECT_EQ(d[0], want->chol) << format_row(spec.name, d);
  EXPECT_EQ(d[1], want->chol_rescaled) << format_row(spec.name, d);
  EXPECT_EQ(d[2], want->ir) << format_row(spec.name, d);
  EXPECT_EQ(d[3], want->ir_higham) << format_row(spec.name, d);
}

TEST(GoldenRows, TableCoversEveryTable1Matrix) {
  EXPECT_EQ(std::size(kGolden), matrices::table1_specs().size());
}

struct RefineCase {
  const matrices::MatrixSpec* spec;
  const char* kind;
};

const std::vector<RefineCase>& refine_cases() {
  static const std::vector<RefineCase> cases = [] {
    std::vector<RefineCase> v;
    for (const char* kind : {"lu_ir", "gmres_ir"})
      for (const auto& s : matrices::general_specs()) v.push_back({&s, kind});
    for (const auto& s : matrices::table1_specs()) v.push_back({&s, "ir_dd"});
    return v;
  }();
  return cases;
}

std::string refine_row_json(const RefineCase& c, bool rescale) {
  core::SolveRequest req;
  req.rescale = rescale;
  req.record_history = true;
  const std::string kind = c.kind;
  if (kind == "ir_dd") {
    req.precision.residual = "dd";
    return core::ir_row_json(core::run_ir_experiment(
        matrices::generate_spd(*c.spec, kSizeCap), req));
  }
  const matrices::GeneratedMatrix m =
      matrices::generate_general(*c.spec, kSizeCap);
  if (kind == "lu_ir")
    return core::lu_ir_row_json(core::run_lu_ir_experiment(m, req));
  return core::gmres_ir_row_json(core::run_gmres_ir_experiment(m, req));
}

class GoldenRefineRowsP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenRefineRowsP, RefinementRowsMatchTheTable) {
  const RefineCase& c = refine_cases()[GetParam()];
  const std::uint64_t plain = digest(refine_row_json(c, false));
  const std::uint64_t rescaled = digest(refine_row_json(c, true));
  char line[160];
  std::snprintf(line, sizeof line,
                "row {\"%s\", \"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull},",
                c.spec->name.c_str(), c.kind, plain, rescaled);
  const GoldenRefineRow* want = nullptr;
  for (const GoldenRefineRow& g : kGoldenRefine)
    if (c.spec->name == g.matrix && std::string(c.kind) == g.kind) want = &g;
  ASSERT_NE(want, nullptr) << "no golden row; computed:\n" << line;
  EXPECT_EQ(plain, want->plain) << line;
  EXPECT_EQ(rescaled, want->rescaled) << line;
}

TEST(GoldenRows, RefineTableCoversEveryCase) {
  EXPECT_EQ(std::size(kGoldenRefine), refine_cases().size());
}

INSTANTIATE_TEST_SUITE_P(
    Refine, GoldenRefineRowsP,
    ::testing::Range(std::size_t(0), refine_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const RefineCase& c = refine_cases()[info.param];
      return c.spec->name + "_" + c.kind;
    });

INSTANTIATE_TEST_SUITE_P(
    Table1, GoldenRowsP,
    ::testing::Range(std::size_t(0), matrices::table1_specs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return matrices::table1_specs()[info.param].name;
    });

}  // namespace
