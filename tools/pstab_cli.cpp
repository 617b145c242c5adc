// pstab — command-line front end to the positstab library.
//
//   pstab list                          show the Table I suite
//   pstab gen-mtx <dir>                 write the synthetic suite as .mtx
//   pstab cg <matrix> [--rescale]       CG in all four 32-bit formats
//   pstab chol <matrix> [--rescale]     Cholesky backward errors
//   pstab ir <matrix> [--higham]        mixed-precision IR in 16-bit formats
//   pstab lu-ir <matrix> [--rescale]    LU-based three-precision IR (general)
//   pstab gmres-ir <matrix> [--rescale] GMRES-IR from the same LU factors
//   pstab serve --script F | --stdio | --port N   persistent solve engine
//   pstab serve-client --port N --script F        framed-TCP request driver
//   pstab chaos [--seed S] [--sessions N]         adversarial serve sessions
//   pstab precision <value>             how each format represents a number
//   pstab fuzz [--seed S] [--cases N]   differential fuzzing vs the GMP oracle
//   pstab inject [--solver cg|cholesky|ir] [--seed S] [--trials N]
//                [--recovery] [--json PATH]   bit-flip fault campaign
//
// The solver subcommands (cg/chol/ir) all parse through
// core::parse_solver_cli into one core::SolveRequest — the same struct the
// serve engine receives over the wire — and every parse failure names the
// offending token and exits non-zero (no silently ignored typos).
// `--json <path>` writes the run as a pstab-results-v1 artifact.
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "core/telemetry/telemetry.hpp"
#include "fuzz/fuzz.hpp"
#include "ieee/softfloat.hpp"
#include "matrices/mm_io.hpp"
#include "matrices/suite.hpp"
#include "posit/lut.hpp"
#include "posit/posit_math.hpp"
#include "resilience/campaign.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"

namespace {

using namespace pstab;

int usage() {
  std::fprintf(stderr,
               "usage: pstab <command> [args]\n"
               "  list | gen-mtx <dir> |\n"
               "  cg|chol|ir|lu-ir|gmres-ir <matrix> [--json <path>] [flags] |\n"
               "  serve --script FILE [--out FILE] | --stdio |\n"
               "        --port N [--once]   with [--threads N] [--cache-mb M]\n"
               "        [--max-frame-kb K] [--max-queue N]\n"
               "        [--max-n N] [--max-matrix-mb M] [--max-budget T]\n"
               "        [--watchdog-ms MS]\n"
               "  serve-client --port N --script FILE [--out FILE]\n"
               "               [--shutdown]\n"
               "  chaos [--seed S] [--sessions N] [--threads T]\n"
               "        [--timeout-ms MS]\n"
               "  precision <value> |\n"
               "  fuzz [--seed S] [--cases N] [--surfaces LIST]\n"
               "       [--corpus DIR] [--no-minimize] [--replay DIR]\n"
               "  inject [--solver cg|cholesky|ir] [--seed S] [--trials N]\n"
               "         [--formats LIST] [--n SIZE] [--cond K] [--recovery]\n"
               "         [--json PATH]\n"
               "  solver flags:\n");
  // The solver flags, from the request-key table.
  for (const core::RequestKey& k : core::request_keys())
    if (k.cli)
      std::fprintf(stderr, "    %s%s%s%s%s\n", k.cli, k.alias ? "|" : "",
                   k.alias ? k.alias : "", k.value ? " " : "",
                   k.value ? k.value : "");
  std::fprintf(stderr, "  PSTAB_SIMD=avx2|avx512|neon|scalar pins the simd ISA\n");
  return 1;
}

/// Parse failure: print the message (it names the offending token), point at
/// the usage text, exit 1.
int bad_usage(const std::string& msg) {
  std::fprintf(stderr, "pstab: %s\n", msg.c_str());
  return usage();
}

int emit_json(const std::string& path, const std::string& doc) {
  if (!core::write_text_file(path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

bool read_text_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[1 << 16];
  std::size_t got;
  out.clear();
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  const bool ok = !std::ferror(f);
  std::fclose(f);
  return ok;
}

int cmd_list(int, char**) {
  core::Table t({"Matrix", "k(A)", "N", "||A||2", "NNZ"});
  for (const auto& s : matrices::table1_specs())
    t.row({s.name, core::fmt_sci(s.cond, 1), core::fmt_int(s.n),
           core::fmt_sci(s.norm2, 1), core::fmt_int(s.nnz)});
  t.print();
  return 0;
}

int cmd_gen_mtx(int argc, char** argv) {
  if (argc < 3) return bad_usage("command 'gen-mtx' requires a directory");
  const std::string dir = argv[2];
  for (const auto& s : matrices::table1_specs()) {
    const auto& g = matrices::suite_matrix(s.name);
    const std::string path = dir + "/" + s.name + ".mtx";
    matrices::write_matrix_market_file(path, g.csr, /*symmetric=*/true);
    std::printf("wrote %s (n=%d nnz=%zu)\n", path.c_str(), g.n, g.csr.nnz());
  }
  return 0;
}

// Shared front half of the solver subcommands: matrix arg and the unified
// flag parse, which also checks the request against its matrix.  Returns
// nonzero (the exit code) on failure.
int solver_prologue(core::Solver solver, int argc, char** argv,
                    core::CliParse& p) {
  if (argc < 3)
    return bad_usage(std::string("command '") + argv[1] +
                     "' requires a matrix name");
  p = core::parse_solver_cli(solver, argv[2], argc, argv, 3);
  return p.ok ? 0 : bad_usage(p.error);
}

/// "k iters" / "1000+" / "-" formatting for a general-refinement cell.
std::string lu_ir_cell_text(const la::LuIrReport& r) {
  const bool failed = r.status == la::SolveStatus::factorization_failed ||
                      r.status == la::SolveStatus::diverged;
  return core::fmt_iters(failed, r.status == la::SolveStatus::max_iterations,
                         r.iterations);
}

int cmd_cg(int argc, char** argv) {
  core::CliParse p;
  if (const int rc = solver_prologue(core::Solver::cg, argc, argv, p)) return rc;
  const auto row =
      core::run_cg_experiment(matrices::suite_matrix(p.req.matrix), p.req);
  const auto cell = [](const core::CgCell& c) {
    if (c.converged()) return std::to_string(c.iterations) + " iters";
    if (c.status == la::SolveStatus::deadline_exceeded)
      return std::string("deadline");
    return std::string(c.status == la::SolveStatus::breakdown ? "diverged"
                                                              : "hit cap");
  };
  std::printf("CG on %s%s\n", p.req.matrix.c_str(),
              p.req.rescale ? " (rescaled)" : "");
  std::printf("  Float64     %s\n", cell(row.f64).c_str());
  std::printf("  Float32     %s\n", cell(row.f32).c_str());
  std::printf("  Posit(32,2) %s\n", cell(row.p32_2).c_str());
  std::printf("  Posit(32,3) %s\n", cell(row.p32_3).c_str());
  if (!p.json_path.empty())
    return emit_json(p.json_path, core::cg_results_json(
                                      p.req.experiment_name(), {row}, p.req));
  return 0;
}

int cmd_chol(int argc, char** argv) {
  core::CliParse p;
  if (const int rc = solver_prologue(core::Solver::cholesky, argc, argv, p))
    return rc;
  const auto row = core::run_cholesky_experiment(
      matrices::suite_matrix(p.req.matrix), p.req);
  const auto cell = [](const core::CholCell& c) {
    return c.converged() ? core::fmt_sci(c.true_relres, 2)
                         : std::string("failed");
  };
  std::printf("Cholesky backward error on %s%s\n", p.req.matrix.c_str(),
              p.req.rescale ? " (diag-rescaled)" : "");
  std::printf("  Float32     %s\n", cell(row.f32).c_str());
  std::printf("  Posit(32,2) %s (%+.2f digits vs F32)\n",
              cell(row.p32_2).c_str(), row.extra_digits(row.p32_2));
  std::printf("  Posit(32,3) %s (%+.2f digits vs F32)\n",
              cell(row.p32_3).c_str(), row.extra_digits(row.p32_3));
  if (!p.json_path.empty())
    return emit_json(p.json_path,
                     core::cholesky_results_json(p.req.experiment_name(),
                                                 {row}, p.req));
  return 0;
}

int cmd_ir(int argc, char** argv) {
  core::CliParse p;
  if (const int rc = solver_prologue(core::Solver::ir, argc, argv, p)) return rc;
  const auto row =
      core::run_ir_experiment(matrices::suite_matrix(p.req.matrix), p.req);
  const auto cell = [](const la::IrReport& r) {
    const bool failed = r.status == la::SolveStatus::factorization_failed ||
                        r.status == la::SolveStatus::diverged;
    return core::fmt_iters(failed,
                           r.status == la::SolveStatus::max_iterations,
                           r.iterations);
  };
  std::printf("mixed-precision IR on %s (%s)\n", p.req.matrix.c_str(),
              p.req.rescale ? "Higham-scaled" : "naive");
  std::printf("  Float16     %s\n", cell(row.f16).c_str());
  std::printf("  Posit(16,1) %s\n", cell(row.p16_1).c_str());
  std::printf("  Posit(16,2) %s\n", cell(row.p16_2).c_str());
  if (!p.json_path.empty())
    return emit_json(
        p.json_path,
        core::ir_results_json(p.req.experiment_name(), {row}, p.req));
  return 0;
}

int cmd_lu_ir(int argc, char** argv) {
  core::CliParse p;
  if (const int rc = solver_prologue(core::Solver::lu_ir, argc, argv, p))
    return rc;
  const auto row =
      core::run_lu_ir_experiment(matrices::suite_matrix(p.req.matrix), p.req);
  std::printf("LU-IR on %s (%s, residual %s)\n", p.req.matrix.c_str(),
              p.req.rescale ? "equilibrated" : "naive",
              p.req.effective_residual().c_str());
  for (const auto& c : row.cells)
    std::printf("  %-6s %s\n", c.format.c_str(),
                lu_ir_cell_text(c.rep).c_str());
  if (!p.json_path.empty())
    return emit_json(
        p.json_path,
        core::lu_ir_results_json(p.req.experiment_name(), {row}, p.req));
  return 0;
}

int cmd_gmres_ir(int argc, char** argv) {
  core::CliParse p;
  if (const int rc = solver_prologue(core::Solver::gmres_ir, argc, argv, p))
    return rc;
  const auto row = core::run_gmres_ir_experiment(
      matrices::suite_matrix(p.req.matrix), p.req);
  std::printf("GMRES-IR on %s (%s, residual %s)\n", p.req.matrix.c_str(),
              p.req.rescale ? "equilibrated" : "naive",
              p.req.effective_residual().c_str());
  for (const auto& c : row.cells)
    std::printf("  %-6s lu %-8s gmres %-8s%s\n", c.format.c_str(),
                lu_ir_cell_text(c.lu).c_str(),
                lu_ir_cell_text(c.gmres).c_str(),
                c.rescued() ? "  RESCUED" : "");
  std::printf("  rescued: %d of %zu formats\n", row.rescue_count(),
              row.cells.size());
  if (!p.json_path.empty())
    return emit_json(
        p.json_path,
        core::gmres_ir_results_json(p.req.experiment_name(), {row}, p.req));
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::EngineOptions opt;
  std::string script_path, out_path;
  bool stdio = false, once = false;
  int port = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--stdio") stdio = true;
    else if (a == "--once") once = true;
    else if (a == "--script" && has_value) script_path = argv[++i];
    else if (a == "--out" && has_value) out_path = argv[++i];
    else if (a == "--port" && has_value)
      port = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--threads" && has_value)
      opt.threads = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--cache-mb" && has_value)
      opt.cache_bytes =
          std::size_t(std::strtoull(argv[++i], nullptr, 10)) << 20;
    else if (a == "--max-frame-kb" && has_value)
      opt.max_frame = std::size_t(std::strtoull(argv[++i], nullptr, 10)) << 10;
    else if (a == "--max-queue" && has_value)
      opt.max_queue = std::size_t(std::strtoull(argv[++i], nullptr, 10));
    else if (a == "--max-n" && has_value)
      opt.max_n = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--max-matrix-mb" && has_value)
      opt.max_matrix_bytes =
          std::size_t(std::strtoull(argv[++i], nullptr, 10)) << 20;
    else if (a == "--max-budget" && has_value)
      opt.max_budget_ticks = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--watchdog-ms" && has_value)
      opt.watchdog_ms = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--script" || a == "--out" || a == "--port" ||
             a == "--threads" || a == "--cache-mb" || a == "--max-frame-kb" ||
             a == "--max-queue" || a == "--max-n" || a == "--max-matrix-mb" ||
             a == "--max-budget" || a == "--watchdog-ms")
      return bad_usage("flag '" + a + "' requires a value");
    else
      return bad_usage("unknown flag '" + a + "'");
  }
  const int modes = int(!script_path.empty()) + int(stdio) + int(port >= 0);
  if (modes != 1)
    return bad_usage("serve needs exactly one of --script, --stdio, --port");

  serve::Engine engine(opt);
  if (!script_path.empty()) {
    std::string text;
    if (!read_text_file(script_path, text)) {
      std::fprintf(stderr, "error: cannot read %s\n", script_path.c_str());
      return 2;
    }
    const auto responses = engine.run_script(text);
    std::string doc;
    for (const auto& r : responses) {
      doc += r;
      doc += '\n';
    }
    if (!out_path.empty()) return emit_json(out_path, doc);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return 0;
  }
  if (stdio) {
    const auto end = engine.serve_stream(stdin, stdout);
    if (end == serve::Engine::StreamEnd::frame_error) {
      std::fprintf(stderr, "error: frame error on stdin\n");
      return 2;
    }
    return 0;
  }
  std::string err;
  if (!engine.serve_tcp(port, once, err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  return 0;
}

int cmd_serve_client(int argc, char** argv) {
  std::string script_path, out_path;
  int port = -1;
  bool shutdown = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--shutdown") shutdown = true;
    else if (a == "--script" && has_value) script_path = argv[++i];
    else if (a == "--out" && has_value) out_path = argv[++i];
    else if (a == "--port" && has_value)
      port = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--script" || a == "--out" || a == "--port")
      return bad_usage("flag '" + a + "' requires a value");
    else
      return bad_usage("unknown flag '" + a + "'");
  }
  if (port < 0 || script_path.empty())
    return bad_usage("serve-client requires --port and --script");
  std::string text;
  if (!read_text_file(script_path, text)) {
    std::fprintf(stderr, "error: cannot read %s\n", script_path.c_str());
    return 2;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof addr) != 0) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d\n", port);
    if (fd >= 0) ::close(fd);
    return 2;
  }
  serve::set_tcp_nodelay(fd);  // one flushed frame per line: no Nagle stall
  std::FILE* out = ::fdopen(fd, "wb");
  std::FILE* in = ::fdopen(::dup(fd), "rb");

  // One frame per non-blank script line; the server validates the JSON and
  // answers every frame, so expected responses == frames sent.
  std::size_t sent = 0, pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (end == text.size()) break;
      continue;
    }
    serve::write_frame(out, line);
    ++sent;
    if (end == text.size()) break;
  }
  if (shutdown) {
    serve::write_frame(
        out, std::string("{\"schema\":\"") + serve::kSchema +
                 "\",\"op\":\"shutdown\",\"id\":18446744073709551615}");
    ++sent;
  }

  std::vector<std::pair<std::uint64_t, std::string>> responses;
  std::string payload, err;
  for (std::size_t i = 0; i < sent; ++i) {
    if (serve::read_frame(in, payload, serve::kDefaultMaxFrame, err) !=
        serve::FrameRead::ok) {
      std::fprintf(stderr, "error: %s\n",
                   err.empty() ? "connection closed early" : err.c_str());
      std::fclose(in);
      std::fclose(out);
      return 2;
    }
    serve::JsonValue doc;
    std::uint64_t id = 0;
    if (serve::json_parse(payload, doc, err)) {
      const serve::JsonValue* idv = doc.find("id");
      if (idv && idv->is_uint()) id = idv->as_uint();
    }
    responses.emplace_back(id, payload);
  }
  std::fclose(in);
  std::fclose(out);

  std::stable_sort(responses.begin(), responses.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string doc;
  for (auto& [id, json] : responses) {
    doc += json;
    doc += '\n';
  }
  if (!out_path.empty()) return emit_json(out_path, doc);
  std::fwrite(doc.data(), 1, doc.size(), stdout);
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  // Seeded adversarial sessions against a live serve engine (serve/chaos.hpp):
  // truncated/corrupt frames, hostile prefixes, vanishing readers, shutdown
  // under load.  Deterministic per (seed, sessions, threads); exit 0 only if
  // zero hangs and zero byte divergences from the clean replay.
  serve::ChaosOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value)
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    else if (a == "--sessions" && has_value)
      opt.sessions = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--threads" && has_value)
      opt.threads = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--timeout-ms" && has_value)
      opt.timeout_ms = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--seed" || a == "--sessions" || a == "--threads" ||
             a == "--timeout-ms")
      return bad_usage("flag '" + a + "' requires a value");
    else
      return bad_usage("unknown flag '" + a + "'");
  }
  if (opt.sessions <= 0 || opt.timeout_ms <= 0) return usage();
  const serve::ChaosReport rep = serve::run_chaos(opt);
  std::printf(
      "chaos: seed=%llu sessions=%d frames=%d responses=%d compared=%d "
      "divergences=%d hangs=%d digest=%016llx\n",
      (unsigned long long)opt.seed, rep.sessions, rep.frames_sent,
      rep.responses, rep.compared, rep.divergences, rep.hangs,
      (unsigned long long)rep.digest);
  if (!rep.ok()) {
    std::fprintf(stderr, "chaos FAILURE: %s\n", rep.first_failure.c_str());
    return 2;
  }
  return 0;
}

template <class T>
void show_precision(const char* label, double v) {
  const T x = scalar_traits<T>::from_double(v);
  const double back = scalar_traits<T>::to_double(x);
  std::printf("  %-12s %-24.17g rel.err %.2e\n", label, back,
              v != 0 ? std::fabs(back - v) / std::fabs(v) : 0.0);
}

int cmd_precision(int argc, char** argv) {
  if (argc < 3) return bad_usage("command 'precision' requires a value");
  const double v = std::strtod(argv[2], nullptr);
  std::printf("representations of %.17g:\n", v);
  show_precision<Half>("Float16", v);
  show_precision<BFloat16>("BFloat16", v);
  show_precision<Posit16_1>("Posit(16,1)", v);
  show_precision<Posit16_2>("Posit(16,2)", v);
  show_precision<float>("Float32", v);
  show_precision<Posit32_2>("Posit(32,2)", v);
  show_precision<Posit32_3>("Posit(32,3)", v);
  show_precision<Posit64_3>("Posit(64,3)", v);
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  // Differential fuzzing of every arithmetic surface against the GMP oracle
  // (src/fuzz).  Deterministic per seed; failures are auto-minimized and
  // printed as replay records (and appended under --corpus).
  fuzz::Options opt;
  opt.cases = 100000;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc)
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    else if (a == "--cases" && i + 1 < argc)
      opt.cases = std::strtol(argv[++i], nullptr, 10);
    else if (a == "--surfaces" && i + 1 < argc)
      opt.surfaces = argv[++i];
    else if (a == "--corpus" && i + 1 < argc)
      opt.corpus_dir = argv[++i];
    else if (a == "--no-minimize")
      opt.minimize = false;
    else if (a == "--replay" && i + 1 < argc) {
      // Replay a corpus directory instead of fuzzing.
      long total = 0;
      std::vector<fuzz::Case> failures;
      const int bad = fuzz::replay_corpus_dir(argv[++i], &total, &failures);
      for (const auto& c : failures)
        std::printf("FAIL %s\n", fuzz::format_line(c).c_str());
      std::printf("fuzz replay: %ld records, %d failing\n", total, bad);
      return bad == 0 ? 0 : 2;
    } else {
      return bad_usage("unknown flag '" + a + "'");
    }
  }
  if (opt.cases <= 0) return usage();
  const fuzz::Stats st = fuzz::run(opt);
  for (const auto& c : st.failures)
    std::printf("FAIL %s\n", fuzz::format_line(c).c_str());
  std::printf("fuzz: seed=%llu cases=%ld (", (unsigned long long)opt.seed,
              st.cases);
  for (int s = 0; s < fuzz::kSurfaceCount; ++s)
    std::printf("%s%s=%ld", s ? " " : "", fuzz::surface_name(s),
                st.per_surface[s]);
  std::printf(") mismatches=%ld digest=%016llx\n", st.mismatches,
              (unsigned long long)st.digest);
  return st.mismatches == 0 ? 0 : 2;
}

int cmd_inject(int argc, char** argv) {
  // Fault-injection campaign (src/resilience): sweep formats x sites x bit
  // fields with seeded single-bit flips, classify each solve against the
  // GMP-verified clean solution.  Deterministic per seed and thread count.
  resilience::CampaignOptions opt;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--solver" && i + 1 < argc)
      opt.solver = argv[++i];
    else if (a == "--seed" && i + 1 < argc)
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    else if (a == "--trials" && i + 1 < argc)
      opt.trials = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--formats" && i + 1 < argc)
      opt.formats = argv[++i];
    else if (a == "--n" && i + 1 < argc)
      opt.n = int(std::strtol(argv[++i], nullptr, 10));
    else if (a == "--cond" && i + 1 < argc)
      opt.cond = std::strtod(argv[++i], nullptr);
    else if (a == "--recovery")
      opt.recovery = true;
    else if (a == "--json" && i + 1 < argc)
      json_path = argv[++i];
    else
      return bad_usage("unknown flag '" + a + "'");
  }
  if (opt.trials <= 0 || opt.n < 4 ||
      (opt.solver != "cg" && opt.solver != "cholesky" && opt.solver != "ir"))
    return usage();
  const auto result = resilience::run_campaign(opt);
  core::Table t({"Format", "Site", "Field", "Masked", "Corrected", "Detected",
                 "SDC", "Hang"});
  for (const auto& c : result.cells)
    t.row({c.format, la::fault::to_string(c.site),
           resilience::to_string(c.field),
           core::fmt_int(c.counts[0]), core::fmt_int(c.counts[1]),
           core::fmt_int(c.counts[2]), core::fmt_int(c.counts[3]),
           core::fmt_int(c.counts[4])});
  t.print();
  int totals[resilience::kOutcomeCount] = {0, 0, 0, 0, 0};
  for (const auto& c : result.cells)
    for (int o = 0; o < resilience::kOutcomeCount; ++o)
      totals[o] += c.counts[o];
  std::printf(
      "inject: solver=%s seed=%llu recovery=%s masked=%d corrected=%d "
      "detected=%d sdc=%d hang=%d digest=%016llx\n",
      opt.solver.c_str(), (unsigned long long)opt.seed,
      opt.recovery ? "on" : "off", totals[0], totals[1], totals[2], totals[3],
      totals[4], (unsigned long long)result.digest);
  if (!json_path.empty())
    return emit_json(json_path, resilience::campaign_json(result));
  return 0;
}

// The dispatch table.  Every subcommand is a row here; an argv[1] that
// matches no row is an error naming the token, never a silent fallthrough.
struct Command {
  const char* name;
  int (*fn)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"list", cmd_list},
    {"gen-mtx", cmd_gen_mtx},
    {"cg", cmd_cg},
    {"chol", cmd_chol},
    {"ir", cmd_ir},
    {"lu-ir", cmd_lu_ir},
    {"lu_ir", cmd_lu_ir},
    {"gmres-ir", cmd_gmres_ir},
    {"gmres_ir", cmd_gmres_ir},
    {"serve", cmd_serve},
    {"serve-client", cmd_serve_client},
    {"chaos", cmd_chaos},
    {"precision", cmd_precision},
    {"fuzz", cmd_fuzz},
    {"inject", cmd_inject},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  lut::enable_defaults();  // table-driven small posits (PSTAB_LUT=0 disables)
  if (telemetry::env_requested()) telemetry::set_enabled(true);
  for (const Command& c : kCommands) {
    if (std::strcmp(argv[1], c.name) != 0) continue;
    try {
      return c.fn(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "pstab: unknown command '%s'\n", argv[1]);
  return usage();
}
