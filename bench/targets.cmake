# Bench targets live at the top level (included from the root CMakeLists)
# so ${CMAKE_BINARY_DIR}/bench contains only executables and
# `for b in build/bench/*; do $b; done` runs the whole paper reproduction.

function(dpc_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    dpc_core dpc_dfs dpc_hostfs dpc_kvfs dpc_cache dpc_dpu dpc_kv dpc_ssd
    dpc_ec dpc_virtio dpc_nvme dpc_nvm dpc_pcie dpc_fault dpc_obs dpc_sim
    Threads::Threads)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

dpc_bench(fig1_motivation)
dpc_bench(fig2_fig4_dma_count)
dpc_bench(fig6_raw_transmission)
dpc_bench(fig7_standalone)
dpc_bench(fig8_hybrid_cache)
dpc_bench(table2_bandwidth)
dpc_bench(fig9_dfs)

dpc_bench(ablation_offload)
dpc_bench(chaos_recovery)
dpc_bench(qos_antagonist)
dpc_bench(nvmlog)
dpc_bench(tail_tolerance)
