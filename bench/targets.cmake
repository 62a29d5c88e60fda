# Benchmark / figure-reproduction binaries: one per data figure of the paper
# plus the §5 trend table, the runtime-overhead measurement and the
# reproduction's own ablations. All land in ${CMAKE_BINARY_DIR}/bench.

function(anadex_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    anadex::expt anadex::sysdes anadex::problems anadex::sacga anadex::moga
    anadex::yield anadex::scint anadex::circuit anadex::device anadex::common
    anadex_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

anadex_bench(fig02_nsga2_front)
anadex_bench(fig04_probability_curves)
anadex_bench(fig05_sacga_vs_tpg)
anadex_bench(fig06_partition_sweep)
anadex_bench(fig08_three_way_fronts)
anadex_bench(fig09_span_sweep)
anadex_bench(fig10_phase_progress)
anadex_bench(fig11_mesacga_vs_best_sacga)
anadex_bench(trend_twenty_specs)
anadex_bench(baseline_comparison)
anadex_bench(modulator_validation)
anadex_bench(ablation_schedule)
anadex_bench(ablation_population)

# EvalEngine evaluations/sec vs worker-thread count, plus the sharded
# scale-out section (plain chrono timing; emits BENCH_eval_throughput.json).
anadex_bench(eval_throughput)
target_link_libraries(eval_throughput PRIVATE anadex::engine anadex::robust
                                              anadex::shard)

# Cost of --trace relative to an untraced run (plain chrono timing; emits
# BENCH_obs_overhead.json and enforces the documented 2% gen-level budget).
anadex_bench(obs_overhead)
target_link_libraries(obs_overhead PRIVATE anadex::obs)

# Wall-clock micro/overhead measurements use google-benchmark.
anadex_bench(overhead_runtime)
target_link_libraries(overhead_runtime PRIVATE benchmark::benchmark)

# Evaluation/ranking kernel timings (plain chrono; emits BENCH_kernels.json
# and enforces the sweep-vs-legacy >= 5x acceptance check at n = 512).
anadex_bench(micro_kernels)
target_link_libraries(micro_kernels PRIVATE anadex::engine)

# Figure smoke gate (ctest label bench_smoke): the MESACGA span figures run
# at quick budget, so settings the figure benches pass and the run path
# rejects fail tier-1 instead of aborting the reproduction script.
foreach(fig fig10_phase_progress fig11_mesacga_vs_best_sacga)
  add_test(NAME BenchSmoke.${fig} COMMAND ${fig})
  set_tests_properties(BenchSmoke.${fig} PROPERTIES
    ENVIRONMENT ANADEX_BENCH_QUICK=1 TIMEOUT 120 LABELS bench_smoke)
endforeach()
