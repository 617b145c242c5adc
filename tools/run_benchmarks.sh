#!/usr/bin/env sh
# Build (Release) and run the paper's experiment benches, leaving their
# schema-checked RESULTS_*.json artifacts in the build directory.
#
#   tools/run_benchmarks.sh [build-dir]        default build-dir: build-bench
#
# Env:
#   PSTAB_THREADS     worker count for the experiment grid (default: cores)
#   PSTAB_BENCH_FULL  =1 also run the remaining figure/table benches
#
# Always runs fig6_cg (RESULTS_cg.json) and the general-systems refinement
# pair table_lu_ir / ablation_gmres_ir (RESULTS_lu_ir.json,
# RESULTS_gmres_ir.json); with PSTAB_BENCH_FULL=1 the other experiment
# benches add their RESULTS_*.json files.  Every artifact is validated with
# tools/check_results_schema.py when python3 is available.
#
# Speed is measured by perfbench, not here: `python3 perfbench/run.py
# --trace 1` reports the per-layer numbers (posit.*_mops, kernels.*.mops,
# kernels.spmv.p32_2.tile_speedup, serve.*) next to the end-to-end metrics.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-bench"}

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 1)" \
  --target fig6_cg fig7_cg_rescaled fig8_cholesky fig9_cholesky_rescaled \
           table2_ir_naive table3_ir_higham table_lu_ir ablation_gmres_ir

cd "$build_dir"
echo "== fig6_cg (writes RESULTS_cg.json) =="
./bench/fig6_cg

echo "== table_lu_ir (writes RESULTS_lu_ir.json) =="
./bench/table_lu_ir

echo "== ablation_gmres_ir (writes RESULTS_gmres_ir.json) =="
./bench/ablation_gmres_ir

if [ "${PSTAB_BENCH_FULL:-0}" = "1" ]; then
  for b in fig7_cg_rescaled fig8_cholesky fig9_cholesky_rescaled \
           table2_ir_naive table3_ir_higham; do
    echo "== $b =="
    ./bench/"$b"
  done
fi

if command -v python3 >/dev/null 2>&1; then
  echo "== schema check =="
  python3 "$repo_root/tools/check_results_schema.py" \
    "$build_dir"/RESULTS_*.json
else
  echo "python3 not found; skipping results schema check"
fi

echo "experiment artifacts in $build_dir:"
ls -l "$build_dir"/RESULTS_*.json 2>/dev/null || true
