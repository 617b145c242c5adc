#include "resilience/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/parallel_for.hpp"
#include "core/report_json.hpp"
#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/ir.hpp"
#include "matrices/generator.hpp"
#include "mp/mpreal.hpp"
#include "resilience/recover.hpp"

namespace pstab::resilience {

namespace {

using la::fault::Site;

// ---------------------------------------------------------------------------
// GMP ground truth: 512-bit Cholesky solve of the clean double system.

la::Vec<double> gmp_reference(const la::Dense<double>& A,
                              const la::Vec<double>& b) {
  const int n = A.rows();
  std::vector<mpf_class> L(std::size_t(n) * n, mp::make());
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) {
      mpf_class s = mp::make(A(i, j));
      for (int k = 0; k < j; ++k) s -= L[i * n + k] * L[j * n + k];
      L[i * n + j] = (i == j) ? mpf_class(sqrt(s)) : mpf_class(s / L[j * n + j]);
    }
  std::vector<mpf_class> y(n, mp::make());
  for (int i = 0; i < n; ++i) {
    mpf_class s = mp::make(b[i]);
    for (int k = 0; k < i; ++k) s -= L[i * n + k] * y[k];
    y[i] = s / L[i * n + i];
  }
  la::Vec<double> x(n);
  std::vector<mpf_class> xm(n, mp::make());
  for (int i = n - 1; i >= 0; --i) {
    mpf_class s = y[i];
    for (int k = i + 1; k < n; ++k) s -= L[k * n + i] * xm[k];
    xm[i] = s / L[i * n + i];
    x[i] = xm[i].get_d();
  }
  return x;
}

double inf_rel_error(const la::Vec<double>& x, const la::Vec<double>& ref) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num = std::max(num, std::abs(x[i] - ref[i]));
    den = std::max(den, std::abs(ref[i]));
  }
  if (den == 0) return num == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  return num / den;
}

// ---------------------------------------------------------------------------
// One solve (clean when plan == nullptr, injected otherwise).

struct Problem {
  la::Dense<double> A;
  la::Vec<double> b;
  la::Vec<double> ref;
  double tol = 1e-5;
  int max_iter = 0;
};

struct SolveOutcome {
  la::SolveStatus status{};
  int iterations = 0;
  bool claimed_success = false;
  bool corrective = false;  // recovery acted (events beyond "recompute")
  double error = std::numeric_limits<double>::infinity();
  bool fired = false;
  int bit = -1;
  int fired_iter = -1;
  std::uint64_t before = 0, after = 0;
};

/// Did recovery plausibly act on the fault?  Restart / shift / escalate
/// events always count; a periodic "recompute" counts only when it happened
/// after the flip landed (it is CG's drift-healing mechanism, but fires in
/// fault-free resilient runs too, so pre-fault recomputes carry no signal).
bool has_corrective_event(const std::vector<la::RecoveryEvent>& ev, bool fired,
                          int fired_iter) {
  for (const auto& e : ev) {
    if (e.action != "recompute") return true;
    if (fired && fired_iter >= 0 && e.iteration > fired_iter) return true;
  }
  return false;
}

template <class T>
void record_flip(SolveOutcome& o, const Injector<T>& inj) {
  o.fired = inj.fired();
  if (!inj.fired()) return;
  o.bit = inj.bit();
  o.fired_iter = inj.fired_iteration();
  o.before = inj.before_bits();
  o.after = inj.after_bits();
}

/// Derived stream for choosing which matrix entry a matrix_entry fault hits
/// (decorrelated from the injector's own bit-pick stream).
SplitMix64 entry_rng(const FaultPlan& plan) {
  return SplitMix64(splitmix_mix(plan.seed, 0x5eedu));
}

template <class T>
SolveOutcome run_cg(const Problem& pb, const FaultPlan* plan,
                    const la::ResilientOptions& res) {
  const int n = pb.A.rows();
  auto At = pb.A.template cast_clamped<T>();
  auto bt = la::kernels::from_double_vec<T>(pb.b);
  Injector<T> inj(plan ? *plan : FaultPlan{});
  la::CgOptions o;
  o.tol = pb.tol;
  o.max_iter = pb.max_iter;
  o.resilience = res;
  if (plan) {
    if (plan->site == Site::matrix_entry) {
      auto er = entry_rng(*plan);
      const int i = int(er.below(n)), j = int(er.below(n));
      inj.flip_now(At(i, j));
    } else {
      o.fault = &inj;
    }
  }
  la::DenseAsOperator<T> op{At, o.kernels};
  la::Vec<T> xt;
  const auto rep = la::cg_solve(op, bt, xt, o);
  SolveOutcome out;
  out.status = rep.status;
  out.iterations = rep.iterations;
  out.claimed_success = la::succeeded(rep.status);
  out.error = inf_rel_error(la::kernels::to_double_vec(xt), pb.ref);
  record_flip(out, inj);
  out.corrective = has_corrective_event(rep.recovery, out.fired, out.fired_iter);
  return out;
}

template <class T>
SolveOutcome run_cholesky(const Problem& pb, const FaultPlan* plan,
                          const la::ResilientOptions& res) {
  const int n = pb.A.rows();
  auto At = pb.A.template cast_clamped<T>();
  auto bt = la::kernels::from_double_vec<T>(pb.b);
  Injector<T> inj(plan ? *plan : FaultPlan{});
  la::fault::Observer* hook = nullptr;
  if (plan) {
    if (plan->site == Site::matrix_entry) {
      // Up-looking Cholesky only reads the upper triangle: keep the fault
      // where the solver will see it.
      auto er = entry_rng(*plan);
      const int i = int(er.below(n));
      const int j = i + int(er.below(std::uint64_t(n - i)));
      inj.flip_now(At(i, j));
    } else {
      hook = &inj;
    }
  }
  const auto f = la::cholesky_resilient(At, res, nullptr, {}, hook);
  SolveOutcome out;
  out.status = f.status;
  out.iterations = n;  // the factorization clock: one tick per column
  if (f.status == la::CholStatus::ok) {
    const auto x = la::solve_upper(f.R, la::solve_lower_rt(f.R, bt));
    if (la::kernels::all_finite(x)) {
      out.claimed_success = true;
      out.error = inf_rel_error(la::kernels::to_double_vec(x), pb.ref);
    } else {
      // Non-finite escape caught by the substitution check: detected.
      out.status = la::CholStatus::arithmetic_error;
    }
  }
  record_flip(out, inj);
  out.corrective = has_corrective_event(f.recovery, out.fired, out.fired_iter);
  return out;
}

template <class F>
SolveOutcome run_ir(const Problem& pb, const FaultPlan* plan,
                    const la::ResilientOptions& res) {
  const int n = pb.A.rows();
  Injector<F> inj(plan ? *plan : FaultPlan{});
  la::IrOptions o;
  o.max_iter = pb.max_iter > 0 ? pb.max_iter : 1000;
  o.resilience = res;
  la::Dense<double> ah_flipped;
  const la::Dense<double>* ah_src = nullptr;
  if (plan) {
    if (plan->site == Site::matrix_entry) {
      // Flip a bit of the format-F stored factorization input (the upper
      // triangle the factorization reads), then hand it back as the double
      // Ah_source: F -> double -> F is exact, so the flipped F value is what
      // every factorization attempt sees, while refinement still targets the
      // clean system.
      auto Ahf = pb.A.template cast_clamped<F>();
      auto er = entry_rng(*plan);
      const int i = int(er.below(n));
      const int j = i + int(er.below(std::uint64_t(n - i)));
      inj.flip_now(Ahf(i, j));
      ah_flipped = Ahf.template cast<double>();
      ah_src = &ah_flipped;
    } else {
      o.fault = &inj;
    }
  }
  la::Vec<double> x;
  const auto rep =
      escalate<F, scaling::HighamScaling>(pb.A, pb.b, x, o, nullptr, ah_src);
  SolveOutcome out;
  out.status = rep.status;
  out.iterations = rep.iterations;
  out.claimed_success = la::succeeded(rep.status);
  if (!x.empty()) out.error = inf_rel_error(x, pb.ref);
  record_flip(out, inj);
  out.corrective = has_corrective_event(rep.recovery, out.fired, out.fired_iter);
  return out;
}

// ---------------------------------------------------------------------------
// Format tables per solver.

using Runner = SolveOutcome (*)(const Problem&, const FaultPlan*,
                                const la::ResilientOptions&);

struct FormatEntry {
  const char* name;
  bool is_posit;
  Runner run;
};

constexpr FormatEntry kCgFormats[] = {
    {"f64", false, &run_cg<double>},
    {"f32", false, &run_cg<float>},
    {"p32_2", true, &run_cg<Posit32_2>},
    {"p32_3", true, &run_cg<Posit32_3>},
};
constexpr FormatEntry kCholFormats[] = {
    {"f64", false, &run_cholesky<double>},
    {"f32", false, &run_cholesky<float>},
    {"p32_2", true, &run_cholesky<Posit32_2>},
    {"p32_3", true, &run_cholesky<Posit32_3>},
};
constexpr FormatEntry kIrFormats[] = {
    {"f16", false, &run_ir<Half>},
    {"p16_1", true, &run_ir<Posit16_1>},
    {"p16_2", true, &run_ir<Posit16_2>},
};

std::vector<FormatEntry> select_formats(const CampaignOptions& opt) {
  const FormatEntry* table = kCgFormats;
  std::size_t count = std::size(kCgFormats);
  if (opt.solver == "cholesky") {
    table = kCholFormats;
    count = std::size(kCholFormats);
  } else if (opt.solver == "ir") {
    table = kIrFormats;
    count = std::size(kIrFormats);
  }
  std::vector<FormatEntry> out;
  if (opt.formats == "all" || opt.formats.empty()) {
    out.assign(table, table + count);
    return out;
  }
  std::stringstream ss(opt.formats);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    for (std::size_t i = 0; i < count; ++i)
      if (tok == table[i].name) out.push_back(table[i]);
  }
  return out;
}

constexpr Site kSites[] = {Site::matrix_entry, Site::vector_entry,
                           Site::dot_result};
constexpr BitField kPositFields[] = {BitField::sign, BitField::regime,
                                     BitField::exponent, BitField::fraction};
constexpr BitField kIeeeFields[] = {BitField::sign, BitField::exponent,
                                    BitField::fraction};

Outcome classify(const CleanRun& clean, const SolveOutcome& o,
                 double accept_tol) {
  if (o.status == la::SolveStatus::max_iterations &&
      la::succeeded(clean.status))
    return Outcome::hang;
  if (!o.claimed_success) return Outcome::detected;
  const double band = std::max(10.0 * clean.error, accept_tol);
  const bool acceptable = std::isfinite(o.error) && o.error <= band;
  if (!acceptable) return Outcome::sdc;
  return (o.fired && o.corrective) ? Outcome::corrected : Outcome::masked;
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& opt) {
  CampaignResult result;
  result.options = opt;

  matrices::MatrixSpec spec;
  spec.name = "inject_spd";
  spec.n = opt.n;
  spec.nnz = long(opt.n) * 5;
  spec.cond = opt.cond;
  spec.norm2 = 1.0;
  spec.cond_core = std::min(opt.cond, 100.0);
  const auto gen = matrices::generate_spd(spec);

  Problem pb;
  pb.A = gen.dense;
  pb.b = matrices::paper_rhs(pb.A);
  pb.ref = gmp_reference(pb.A, pb.b);
  pb.tol = 1e-5;
  pb.max_iter = opt.solver == "ir" ? 1000 : 15 * opt.n;

  la::ResilientOptions res = opt.resilience;
  res.enabled = opt.recovery;
  if (res.enabled && res.recompute_every == 0) res.recompute_every = 25;
  const la::ResilientOptions res_off{};  // clean baseline: plain solver

  const auto formats = select_formats(opt);

  // Clean baselines (one per format, sequential: they are cheap and their
  // iteration counts seed the injected plans).
  for (const auto& f : formats) {
    const SolveOutcome o = f.run(pb, nullptr, res_off);
    result.clean.push_back({f.name, o.status, o.iterations, o.error});
  }

  // Cell list in fixed order: format-major, then site, then field.
  struct CellPlan {
    std::size_t format_idx;
    Site site;
    BitField field;
  };
  std::vector<CellPlan> plans;
  for (std::size_t fi = 0; fi < formats.size(); ++fi)
    for (const Site site : kSites) {
      const BitField* fields = formats[fi].is_posit ? kPositFields : kIeeeFields;
      const std::size_t nfields =
          formats[fi].is_posit ? std::size(kPositFields) : std::size(kIeeeFields);
      for (std::size_t bf = 0; bf < nfields; ++bf)
        plans.push_back({fi, site, fields[bf]});
    }

  result.cells = parallel_map<CampaignCell>(plans.size(), [&](std::size_t ci) {
    const CellPlan& cp = plans[ci];
    const FormatEntry& fe = formats[cp.format_idx];
    const CleanRun& clean = result.clean[cp.format_idx];
    CampaignCell cell;
    cell.format = fe.name;
    cell.site = cp.site;
    cell.field = cp.field;
    const int clock_range = std::max(1, clean.iterations);
    for (int t = 0; t < opt.trials; ++t) {
      FaultPlan plan;
      plan.seed = splitmix_mix(opt.seed, ci * 1000003ull + std::uint64_t(t));
      plan.site = cp.site;
      plan.field = cp.field;
      SplitMix64 itr(splitmix_mix(plan.seed, 0x17e2u));
      plan.iteration = int(itr.below(std::uint64_t(clock_range)));
      const SolveOutcome o = fe.run(pb, &plan, res);
      TrialRecord rec;
      rec.outcome = classify(clean, o, opt.accept_tol);
      rec.fired = o.fired;
      rec.bit = o.bit;
      rec.iteration = o.fired_iter;
      rec.before_bits = o.before;
      rec.after_bits = o.after;
      rec.error = o.error;
      cell.counts[int(rec.outcome)]++;
      cell.trials.push_back(rec);
    }
    return cell;
  });

  // Order-sensitive FNV-1a over every trial record, serialized from the
  // index-ordered cell vector: thread-schedule independent by construction.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t ci = 0; ci < result.cells.size(); ++ci) {
    const auto& cell = result.cells[ci];
    mix(ci);
    for (const auto& t : cell.trials) {
      mix(std::uint64_t(int(t.outcome)));
      mix(std::uint64_t(t.fired ? 1 : 0));
      mix(std::uint64_t(std::int64_t(t.bit)));
      mix(t.before_bits);
      mix(t.after_bits);
    }
  }
  result.digest = h;
  return result;
}

std::string campaign_json(const CampaignResult& r) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pstab-results-v1");
  w.key("experiment").value("fault_campaign");
  w.key("options").begin_object();
  w.key("seed").value(std::uint64_t(r.options.seed));
  w.key("solver").value(r.options.solver);
  w.key("formats").value(r.options.formats);
  w.key("n").value(r.options.n);
  w.key("cond").value(r.options.cond);
  w.key("trials").value(r.options.trials);
  w.key("recovery").value(r.options.recovery);
  w.key("accept_tol").value(r.options.accept_tol);
  w.end_object();
  w.key("clean").begin_array();
  for (const auto& c : r.clean) {
    w.begin_object();
    w.key("format").value(c.format);
    w.key("status").value(la::to_string(c.status));
    w.key("iterations").value(c.iterations);
    w.key("error").value(c.error);
    w.end_object();
  }
  w.end_array();
  w.key("cells").begin_array();
  for (const auto& c : r.cells) {
    w.begin_object();
    w.key("format").value(c.format);
    w.key("site").value(la::fault::to_string(c.site));
    w.key("field").value(to_string(c.field));
    w.key("trials").value(int(c.trials.size()));
    for (int o = 0; o < kOutcomeCount; ++o)
      w.key(to_string(Outcome(o))).value(c.counts[o]);
    w.end_object();
  }
  w.end_array();
  w.key("digest").value(r.digest);
  w.end_object();
  return w.str();
}

}  // namespace pstab::resilience
