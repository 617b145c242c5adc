// The one request/response pair every solve in the tree goes through.
//
// Historically each experiment carried its own options struct
// (CgExperimentOptions / CholExperimentOptions / IrExperimentOptions) and the
// CLI re-parsed the same flags per subcommand.  core::SolveRequest replaces
// all three: the CLI subcommands, the experiment grid runners (bench/), and
// the serve engine (src/serve) construct the same struct and dispatch through
// run_request().  On the wire the pair is serialized as "pstab-serve-v1"
// (src/serve/protocol.hpp); responses reuse the report_json row emitters, so
// a serve response body is byte-identical to the corresponding row of a
// pstab-results-v1 artifact.
//
// ArtifactCache is the seam for the serve engine's bounded content-addressed
// cache: experiment drivers ask it for generated matrices, Higham
// equilibrations and Cholesky factorizations by digest-derived key instead of
// recomputing.  A null cache (the default everywhere outside serve) means
// "compute"; results are bit-identical either way because cached values are
// the same objects the cold path would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/fnv.hpp"
#include "core/budget.hpp"
#include "la/kernels/kernels.hpp"
#include "la/solve_report.hpp"

namespace pstab::matrices {
struct GeneratedMatrix;
}

namespace pstab::core {

// ---------------------------------------------------------------------------
// Solver identity — one registry row per solver.
//
// The closed `switch (solver)` statements that used to be scattered across
// parse_solver / effective_tol / experiment_name / run_request are gone:
// every per-solver fact (spelling, aliases, defaults, artifact tags, SPD
// requirement, runner) lives in ONE SolverInfo row in solver_registry()
// (solve_api.cpp).  Adding a solver is adding a row plus its runner.

enum class Solver { cg, cholesky, ir, lu_ir, gmres_ir };

struct SolveRequest;
class ArtifactCache;

struct SolverInfo {
  Solver id;
  const char* name;  // canonical spelling; to_string(id) returns this
  std::vector<const char*> aliases;  // accepted on parse ("chol", "lu-ir"...)
  double default_tol;
  int default_max_iter;      // iteration cap default (0 = direct solver)
  bool iters_scale_with_n;   // cap = (max_iter_per_n ? : default) * n  (CG)
  bool requires_spd;         // run_request rejects general-suite matrices
  const char* default_residual;  // what PrecisionTriple residual "auto" means
  const char* tag_plain;     // artifact experiment tags
  const char* tag_rescaled;
  /// Run the solver's grid row on one matrix, returning the serialized
  /// report_json row object.
  std::string (*run_row)(const matrices::GeneratedMatrix&, const SolveRequest&,
                         ArtifactCache*);
};

[[nodiscard]] const std::vector<SolverInfo>& solver_registry();
[[nodiscard]] const SolverInfo& solver_info(Solver s) noexcept;

[[nodiscard]] const char* to_string(Solver s) noexcept;
/// Accepts every registry name and alias ("cholesky"/"chol", "ir",
/// "lu_ir"/"lu-ir", "gmres_ir"/"gmres-ir", ...).
[[nodiscard]] bool parse_solver(std::string_view s, Solver& out) noexcept;

// ---------------------------------------------------------------------------
// PrecisionTriple — the (u_f, u, u_r) choice as first-class request state.
//
// factor:   "grid" (sweep the solver's registered format grid) or one format
//           tag from factor_formats() to run a single column.
// working:  only "f64" today (all refinement runs in double).
// residual: "auto" (the solver's default_residual), "f64", "dd"
//           (double-double), or "quire" (exact Kulisch accumulation).
struct PrecisionTriple {
  std::string factor = "grid";
  std::string working = "f64";
  std::string residual = "auto";
  [[nodiscard]] bool is_default() const {
    return factor == "grid" && working == "f64" && residual == "auto";
  }
};

/// Format tags accepted for PrecisionTriple::factor (besides "grid").
[[nodiscard]] const std::vector<std::string>& factor_formats();
[[nodiscard]] bool valid_factor(const std::string& s) noexcept;
[[nodiscard]] bool valid_residual(const std::string& s) noexcept;

// ---------------------------------------------------------------------------
// SolveRequest

struct SolveRequest {
  std::uint64_t id = 0;      // caller correlation id (excluded from caching)
  Solver solver = Solver::cg;
  std::string matrix;        // Table I suite name (matrices::find_spec)

  // One scaling knob per solver family: power-of-two inf-norm rescaling for
  // CG (paper experiment 2), diagonal-average rescaling for Cholesky
  // (experiment 4), Higham scaling for IR (experiment 6).
  bool rescale = false;

  double tol = 0.0;          // 0 = solver default (see effective_tol)
  int max_iter = 0;          // 0 = solver default cap
  int max_iter_per_n = 0;    // CG only: cap = max_iter_per_n * n; 0 = 15
  bool fused_dots = false;   // CG quire ablation
  bool record_history = false;
  bool record_trace = false; // traces hold wall times; never serialized
  bool resilience = false;   // self-healing with la::ResilientOptions defaults

  // 0 = the paper's deterministic RHS (b = A * (1/sqrt(n), ...)).  Nonzero
  // seeds a random unit xhat instead, so a request stream can carry many
  // right-hand sides for one matrix (the multi-RHS batching case).
  std::uint64_t rhs_seed = 0;

  // The (u_f, u, u_r) precision choice; defaults reproduce the historical
  // behaviour of every solver (full format grid, double working precision,
  // per-solver residual precision).
  PrecisionTriple precision;

  la::kernels::Backend backend = la::kernels::Backend::Auto;

  // Panel width for the blocked factorizations (la/blocked.hpp): 0 = auto
  // (blocked above blocked::kAutoMinN with a size-picked width), >= 1 forces
  // that width, a width >= n runs the unblocked reference loops.  Every
  // width produces bit-identical factors — this knob trades wall-clock only
  // — but it participates in batch_key/canonical_key so cached timings and
  // coalesced jobs stay attributable to one configuration.
  int block = 0;

  // Deterministic deadline in work units (iteration / factorization-column
  // ticks; see core/budget.hpp).  0 = unlimited.  Each grid cell of the
  // solve gets its OWN core::Budget of this many ticks, so a budget-exceeded
  // row is byte-identical for any PSTAB_THREADS.  Participates in the cache
  // and batch keys: a budgeted solve is different work from an unbudgeted
  // one.
  int budget_ticks = 0;

  // Runtime-only cancellation hook (the serve engine's hang watchdog flips
  // it; never serialized, never part of any key).  A solve interrupted by
  // cancellation is nondeterministic, so run_request reports it as an error
  // and never memoizes it.
  CancelToken* cancel = nullptr;

  /// tol with the per-solver registry default applied: 1e-5 for CG/Cholesky
  /// (the paper's convergence threshold) and 4*1.11e-16 for the refinement
  /// family ("accurate to Float64 precision").
  [[nodiscard]] double effective_tol() const noexcept;
  /// Iteration cap with the per-solver registry default applied (n = matrix
  /// order): CG 15n, IR/LU-IR 1000, GMRES-IR 100 outer, Cholesky 0 (direct).
  [[nodiscard]] int effective_max_iter(int n) const noexcept;
  /// precision.residual with "auto" resolved to the solver's registry
  /// default ("f64" for cg/cholesky/ir, "dd" for lu_ir/gmres_ir).
  [[nodiscard]] std::string effective_residual() const;
  /// Empty when precision is valid for this request's solver; otherwise a
  /// human-readable error naming the offending member.
  [[nodiscard]] std::string precision_error() const;
  /// Empty when this request can run; otherwise why not: an unknown
  /// matrix, a matrix the solver cannot take, `resilience` on lu_ir/gmres_ir
  /// (lu_factor has no recovery ladder), or precision_error().  Shared by the
  /// CLI and run_request; the serve parser accepts any well-formed request.
  [[nodiscard]] std::string request_error() const;
  [[nodiscard]] la::kernels::Context kernel_context() const noexcept {
    return la::kernels::Context{backend, block};
  }
  [[nodiscard]] la::ResilientOptions resilient_options() const noexcept {
    la::ResilientOptions r;
    r.enabled = resilience;
    return r;
  }
  /// "cg" / "cg_rescaled" / "cholesky" / ... — the artifact experiment tag.
  [[nodiscard]] std::string experiment_name() const;
  /// Canonical identity of the work this request names: the wire encoding of
  /// the request keys without `id` (record_trace and cancel are not request
  /// keys).  Equal keys mean byte-identical result rows; the serve engine
  /// memoizes responses on this string.
  [[nodiscard]] std::string canonical_key() const;
  /// canonical_key() minus `rhs_seed`: requests equal under this key share
  /// matrix, scaling and factorization, so the engine batches them into one
  /// multi-RHS job (one factorization, many triangular solves).
  [[nodiscard]] std::string batch_key() const;
};

// ---------------------------------------------------------------------------
// The request-key table: every SolveRequest key, declared once.
//
// One row per key gives its wire name (a dotted name is a member of a nested
// wire object: "precision.factor"), its CLI flag and alias, and the field it
// sets.  The field's type is the key's value kind, and each kind has one
// validator that reads the value's text.  The wire parser and serializer
// (serve/protocol.cpp), parse_solver_cli, canonical_key/batch_key and pstab's
// usage text are all loops over this table.

class JsonWriter;

using KeyField = std::variant<bool*, int*, double*, std::uint64_t*,
                              std::string*, Solver*, la::kernels::Backend*>;

/// The narrowest encoding that carries a key; an encoding carries every key
/// of its own scope and the narrower ones.
enum class KeyScope { wire, canonical, batch };

enum class KeyKind { flag, number, text };

struct RequestKey {
  const char* wire;
  const char* cli;    // nullptr: not a flag (`id`, or positional on the CLI)
  const char* alias;  // second CLI spelling, or nullptr
  const char* value;  // usage placeholder for the flag's value
  KeyScope scope;
  bool required;      // a solve request must carry it
  KeyField (*field)(SolveRequest&);

  [[nodiscard]] KeyKind kind() const;
  /// What a value must be ("an integer in [0, 2147483647]").
  [[nodiscard]] const char* expects() const;
  /// Validate `text` and store it in `r`; false (r unchanged) if rejected.
  [[nodiscard]] bool set(SolveRequest& r, std::string_view text) const;
};

[[nodiscard]] std::span<const RequestKey> request_keys();
/// The row with this wire name; nullptr if none.
[[nodiscard]] const RequestKey* find_wire_key(std::string_view name);

/// Read a CLI flag's value with the validator of the value kind `out`
/// points at — for request keys and for the numeric flags outside the
/// table (pstab serve, fuzz, inject, ...) alike.  On rejection `out` is
/// unchanged and `error` reads "<flag> expects <kind>, got '<text>'".
[[nodiscard]] bool read_flag_value(std::string_view flag,
                                   std::string_view text, KeyField out,
                                   std::string& error);

/// Write the keys whose scope lies in [from, to] as members of the object
/// `w` has open, in table order, nesting dotted names.
void write_request_keys(const SolveRequest& r, JsonWriter& w, KeyScope from,
                        KeyScope to = KeyScope::batch);

// ---------------------------------------------------------------------------
// SolveResponse

struct SolveResponse {
  std::uint64_t id = 0;
  bool ok = false;
  /// Whole-response memo hit (in-memory observability only: the flag depends
  /// on cache state, so it is deliberately NOT serialized — serialized
  /// response bytes are identical warm or cold).
  bool cache_hit = false;
  std::string error;        // set when !ok
  std::string result_json;  // one report_json row object (when ok)
};

// ---------------------------------------------------------------------------
// ArtifactCache

/// Bounded content-addressed cache interface.  Keys embed a content digest,
/// the numeric format tag and the scaling, so distinct numerics never
/// collide; values are immutable shared snapshots (a get may outlive the
/// entry's eviction).  src/serve/cache.hpp provides the thread-safe LRU
/// implementation; the null default everywhere else means "no memoization".
class ArtifactCache {
 public:
  virtual ~ArtifactCache() = default;
  /// nullptr on miss.  Implementations count hits/misses here.
  [[nodiscard]] virtual std::shared_ptr<const void> get(
      const std::string& key) = 0;
  /// `bytes` is the entry's approximate footprint for the size bound.
  virtual void put(const std::string& key, std::shared_ptr<const void> value,
                   std::size_t bytes) = 0;

  /// Lookup-or-compute; `make()` returns T by value, `bytes(t)` sizes it.
  template <class T, class Make, class Bytes>
  std::shared_ptr<const T> get_or_make(const std::string& key, Make&& make,
                                       Bytes&& bytes) {
    if (auto hit = get(key)) return std::static_pointer_cast<const T>(hit);
    auto made = std::make_shared<const T>(make());
    put(key, made, bytes(*made));
    return made;
  }
};

// ---------------------------------------------------------------------------
// Digests.  Matrix content digests are computed once, where a matrix is
// generated or loaded (matrices::GeneratedMatrix::digest); cache keys embed
// them through digest_hex.  The hash itself lives in common/fnv.hpp, below
// matrices/; core::fnv1a64 remains its name for report and response digests.

using pstab::fnv1a64;
[[nodiscard]] std::string digest_hex(std::uint64_t d);

// ---------------------------------------------------------------------------
// The CLI parser: every failure names the offending token, and the caller
// exits non-zero.

struct CliParse {
  SolveRequest req;
  std::string json_path;  // --json <path>; empty = no artifact
  bool ok = true;
  std::string error;      // human-readable, contains the offending token
};

/// Parse the flags of a `pstab <solver> <matrix> [flags...]` invocation into
/// a SolveRequest, starting at argv[first], and check it with
/// request_error().  Serve requests reach the same struct through
/// serve::request_from_json.
[[nodiscard]] CliParse parse_solver_cli(Solver solver,
                                        const std::string& matrix, int argc,
                                        char** argv, int first);

// ---------------------------------------------------------------------------
// Dispatch

/// Run one request end to end: resolve the matrix (through `cache` when
/// given), run the solver grid row, serialize it with the report_json row
/// emitter.  Errors (unknown matrix, solver failure by exception) come back
/// as ok = false rather than throwing.  When a cache is supplied the whole
/// response is memoized under canonical_key(), and matrix / equilibration /
/// factorization artifacts are shared across requests.
[[nodiscard]] SolveResponse run_request(const SolveRequest& req,
                                        ArtifactCache* cache = nullptr);

}  // namespace pstab::core
