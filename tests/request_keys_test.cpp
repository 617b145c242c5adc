// The request-key table (core::request_keys) is the one declaration of every
// SolveRequest key.  These tests hold the two front ends to it: for every
// row, the CLI flag and the wire key accept the same texts into the same
// canonical key, reject the same bad texts naming the flag or key and the
// text, and serialization round-trips.  A doc-drift check keeps the key table
// of docs/serve.md complete.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/solve_api.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace pstab;

constexpr const char* kMatrix = "bcsstk02";

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t end = s.find(sep, pos);
    out.emplace_back(s.substr(pos, end - pos));
    if (end == std::string_view::npos) return out;
    pos = end + 1;
  }
}

/// A solver that takes every key of this row (the precision triple needs a
/// refinement solver with a free factor format).
core::Solver solver_for(const core::RequestKey& k) {
  return std::string_view(k.wire).starts_with("precision.")
             ? core::Solver::lu_ir
             : core::Solver::cg;
}

/// Runs `f` with a default-valued pointer of the row's field type.
template <class F>
auto visit_kind(const core::RequestKey& k, F&& f) {
  core::SolveRequest probe;
  return std::visit(std::forward<F>(f), k.field(probe));
}

std::vector<std::string> accepted_texts(const core::RequestKey& k) {
  return visit_kind(k, [&](auto* p) -> std::vector<std::string> {
    using T = std::remove_pointer_t<decltype(p)>;
    if constexpr (std::is_same_v<T, bool>) return {"true", "false"};
    if constexpr (std::is_same_v<T, int>)
      return {"0", "7", "10", "2147483647"};
    if constexpr (std::is_same_v<T, double>)
      return {"0", "1e-6", "0.25", "3", "1e-300"};
    if constexpr (std::is_same_v<T, std::uint64_t>)
      return {"0", "10", "42", "18446744073709551615"};
    if constexpr (std::is_same_v<T, core::Solver>) {
      std::vector<std::string> v;
      for (const auto& info : core::solver_registry()) {
        v.emplace_back(info.name);
        for (const char* a : info.aliases) v.emplace_back(a);
      }
      return v;
    }
    if (k.value) return split(k.value, '|');
    return {kMatrix, "a \"quoted\" name"};
  });
}

/// Texts every front end must reject for this row's kind.  Text keys take
/// any string at parse time (precision_error judges the triple later), so
/// only the enums have bad texts there.
std::vector<std::string> rejected_texts(const core::RequestKey& k) {
  return visit_kind(k, [](auto* p) -> std::vector<std::string> {
    using T = std::remove_pointer_t<decltype(p)>;
    if constexpr (std::is_same_v<T, int>)
      return {"abc", "-3", "12x", "2147483648", "18446744073709551616",
              "1e999", "1.5", "+5"};
    if constexpr (std::is_same_v<T, double>)
      return {"abc", "-1e-5", "1e-5x", "1e999", "-1e999", "inf", "nan", ""};
    if constexpr (std::is_same_v<T, std::uint64_t>)
      return {"abc", "-1", "7x", "18446744073709551616", "1e999", "0x10",
              "1.5"};
    if constexpr (std::is_same_v<T, core::Solver> ||
                  std::is_same_v<T, la::kernels::Backend>)
      return {"sse9"};
    return {};
  });
}

/// The JSON value for `text` under this row: a flag's literal, a number's
/// token when the text is one (else a string, so the key's own check rejects
/// it), or a string.
std::string json_value(const core::RequestKey& k, const std::string& text) {
  if (k.kind() == core::KeyKind::flag) return text;
  if (k.kind() == core::KeyKind::number) {
    serve::JsonValue v;
    std::string err;
    if (serve::json_parse(text, v, err) &&
        v.kind == serve::JsonValue::Kind::number)
      return text;
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// A solve request carrying this one key, in the wire's nesting.
std::string wire_request(const core::RequestKey& k, const std::string& text) {
  const std::string value = json_value(k, text);
  const std::string_view name = k.wire;
  const std::size_t dot = name.find('.');
  const std::string member =
      dot == std::string_view::npos
          ? "\"" + std::string(name) + "\":" + value
          : "\"" + std::string(name.substr(0, dot)) + "\":{\"" +
                std::string(name.substr(dot + 1)) + "\":" + value + "}";
  std::string head = R"({"schema":"pstab-serve-v1")";
  if (name != "solver")
    head += std::string(",\"solver\":\"") + core::to_string(solver_for(k)) +
            "\"";
  if (name != "matrix") head += std::string(",\"matrix\":\"") + kMatrix + "\"";
  return head + "," + member + "}";
}

core::CliParse cli(core::Solver s, std::vector<std::string> flags) {
  std::vector<std::string> args = {"pstab", "solve", kMatrix};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return core::parse_solver_cli(s, kMatrix, int(argv.size()), argv.data(), 3);
}

std::vector<std::string> cli_flags(const core::RequestKey& k,
                                   const std::string& text) {
  if (k.kind() != core::KeyKind::flag) return {k.cli, text};
  if (text == "true") return {k.cli};
  return {};
}

// ---------------------------------------------------------------------------

// The three places the front ends once disagreed, each resolved to one rule.
TEST(RequestKeys, DriftsResolveToOneRule) {
  serve::Request req;
  std::string err;
  const std::string head =
      R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"bcsstk02",)";

  // tol must be finite: 1e999 is not +inf on either side.
  EXPECT_FALSE(cli(core::Solver::cg, {"--tol", "1e999"}).ok);
  EXPECT_FALSE(serve::request_from_json(head + R"("tol":1e999})", req, err));
  EXPECT_NE(err.find("'tol'"), std::string::npos) << err;
  EXPECT_NE(err.find("1e999"), std::string::npos) << err;

  // rhs_seed is decimal on both sides: the CLI reads 010 as ten, the wire
  // rejects the token 010 (JSON has no leading zeros), 0x10 is rejected.
  const core::CliParse seed = cli(core::Solver::cg, {"--rhs-seed", "010"});
  ASSERT_TRUE(seed.ok) << seed.error;
  EXPECT_FALSE(serve::request_from_json(head + R"("rhs_seed":010})", req, err));
  ASSERT_TRUE(serve::request_from_json(head + R"("rhs_seed":10})", req, err))
      << err;
  EXPECT_EQ(seed.req.rhs_seed, 10u);
  EXPECT_EQ(seed.req.canonical_key(), req.solve.canonical_key());
  const core::CliParse hex = cli(core::Solver::cg, {"--rhs-seed", "0x10"});
  EXPECT_FALSE(hex.ok);
  EXPECT_NE(hex.error.find("--rhs-seed"), std::string::npos) << hex.error;

  // budget has one bound: INT_MAX.
  const core::CliParse top = cli(core::Solver::cg, {"--budget", "2147483647"});
  ASSERT_TRUE(top.ok) << top.error;
  ASSERT_TRUE(
      serve::request_from_json(head + R"("budget":2147483647})", req, err))
      << err;
  EXPECT_EQ(top.req.canonical_key(), req.solve.canonical_key());
  EXPECT_FALSE(cli(core::Solver::cg, {"--budget", "2147483648"}).ok);
  EXPECT_FALSE(
      serve::request_from_json(head + R"("budget":2147483648})", req, err));
}

TEST(RequestKeys, CliAndWireAcceptTheSameTextsIntoTheSameKey) {
  for (const core::RequestKey& k : core::request_keys()) {
    if (!k.cli) continue;
    for (const std::string& text : accepted_texts(k)) {
      const core::CliParse p = cli(solver_for(k), cli_flags(k, text));
      ASSERT_TRUE(p.ok) << k.cli << " " << text << ": " << p.error;
      serve::Request w;
      std::string err;
      ASSERT_TRUE(serve::request_from_json(wire_request(k, text), w, err))
          << wire_request(k, text) << ": " << err;
      EXPECT_EQ(p.req.canonical_key(), w.solve.canonical_key())
          << k.wire << " = " << text;
    }
    if (k.alias) {
      const core::CliParse a = cli(solver_for(k), {k.alias});
      const core::CliParse f = cli(solver_for(k), {k.cli});
      ASSERT_TRUE(a.ok) << a.error;
      EXPECT_EQ(a.req.canonical_key(), f.req.canonical_key()) << k.alias;
    }
  }
}

TEST(RequestKeys, BothFrontEndsRejectTheSameTextsNamingKeyAndText) {
  int checked = 0;
  for (const core::RequestKey& k : core::request_keys()) {
    for (const std::string& text : rejected_texts(k)) {
      ++checked;
      serve::Request w;
      std::string err;
      EXPECT_FALSE(serve::request_from_json(wire_request(k, text), w, err))
          << wire_request(k, text);
      EXPECT_NE(err.find(std::string("'") + k.wire + "'"), std::string::npos)
          << err;
      EXPECT_NE(err.find("'" + text + "'"), std::string::npos) << err;
      if (!k.cli) continue;
      const core::CliParse p = cli(solver_for(k), {k.cli, text});
      EXPECT_FALSE(p.ok) << k.cli << " " << text;
      EXPECT_NE(p.error.find(k.cli), std::string::npos) << p.error;
      EXPECT_NE(p.error.find("'" + text + "'"), std::string::npos)
          << p.error;
    }
  }
  EXPECT_GT(checked, 40);
}

TEST(RequestKeys, SerializeThenParseIsTheIdentityForEveryKey) {
  for (const core::RequestKey& k : core::request_keys()) {
    for (const std::string& text : accepted_texts(k)) {
      serve::Request q;
      q.solve.solver = solver_for(k);
      q.solve.matrix = kMatrix;
      ASSERT_TRUE(k.set(q.solve, text)) << k.wire << " = " << text;
      const std::string wire = serve::request_to_json(q);
      serve::Request back;
      std::string err;
      ASSERT_TRUE(serve::request_from_json(wire, back, err)) << wire << err;
      EXPECT_EQ(serve::request_to_json(back), wire);
      EXPECT_EQ(back.solve.canonical_key(), q.solve.canonical_key());
      EXPECT_EQ(back.solve.id, q.solve.id);
    }
  }
}

TEST(RequestKeys, CacheKeysAreTheWireFormWithoutIdAndSeed) {
  serve::Request q;
  q.solve.id = 5;
  q.solve.matrix = kMatrix;
  q.solve.rhs_seed = 9;
  const std::string wire = serve::request_to_json(q);
  const std::string canonical = q.solve.canonical_key();
  // The wire form is {"schema":..,"op":..,"id":5,<canonical members>}.
  EXPECT_EQ(wire.substr(wire.find(",\"solver\"") + 1),
            canonical.substr(1));
  EXPECT_EQ(canonical.find("\"id\""), std::string::npos);
  EXPECT_NE(canonical.find("\"rhs_seed\":9"), std::string::npos);
  EXPECT_EQ(q.solve.batch_key().find("rhs_seed"), std::string::npos);
  core::SolveRequest other = q.solve;
  other.rhs_seed = 10;
  EXPECT_EQ(other.batch_key(), q.solve.batch_key());
  EXPECT_NE(other.canonical_key(), q.solve.canonical_key());
}

// resilience engages no recovery on the LU solvers, so both paths that run
// a request reject it, naming the key and the solver; parsing still accepts
// it (the wire round-trips every representable request).
TEST(RequestKeys, ResilienceIsRejectedForTheLuSolvers) {
  for (const core::Solver s : {core::Solver::lu_ir, core::Solver::gmres_ir}) {
    const core::CliParse p = cli(s, {"--resilience"});
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("resilience"), std::string::npos) << p.error;
    EXPECT_NE(p.error.find(core::to_string(s)), std::string::npos) << p.error;

    serve::Request w;
    std::string err;
    ASSERT_TRUE(serve::request_from_json(
        std::string(R"({"schema":"pstab-serve-v1","solver":")") +
            core::to_string(s) + R"(","matrix":"gre_216a","resilience":true})",
        w, err))
        << err;
    const core::SolveResponse resp = core::run_request(w.solve);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error, p.error);
  }
  EXPECT_TRUE(cli(core::Solver::cg, {"--resilience"}).ok);
  EXPECT_TRUE(cli(core::Solver::ir, {"--resilience"}).ok);
}

// Doc drift: every wire key and CLI flag of the table appears in the
// request-key table of docs/serve.md.
TEST(RequestKeys, EveryKeyIsInTheServeDocTable) {
  std::ifstream in(std::string(PSTAB_DOCS_DIR) + "/serve.md");
  ASSERT_TRUE(in) << "cannot read docs/serve.md";
  std::string line, table;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.starts_with("| wire key")) inside = true;
    else if (inside && !line.starts_with("|")) break;
    if (inside) table += line + "\n";
  }
  ASSERT_FALSE(table.empty()) << "no '| wire key' table in docs/serve.md";
  for (const core::RequestKey& k : core::request_keys()) {
    EXPECT_NE(table.find(std::string("`") + k.wire + "`"), std::string::npos)
        << k.wire;
    if (k.cli) {
      EXPECT_NE(table.find(std::string("`") + k.cli), std::string::npos)
          << k.cli;
    }
  }
}

}  // namespace
