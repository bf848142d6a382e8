# Run one figure/ablation driver at a fixed reduced FS_BENCH_SCALE and
# byte-compare its stdout against a committed golden
# (tests/golden/figures/), once serially (FS_JOBS=1) and once sharded
# (FS_JOBS=4). Invoked by ctest via
#   cmake -DBENCH=<driver> -DGOLDEN=<file> -DOUT=<prefix>
#         -DSCALE=<FS_BENCH_SCALE> -P figure_golden_check.cmake
#
# Only stdout is compared: progress lines on stderr interleave with
# the sharding and are kept in <prefix>.jobs<N>.err for inspection.

foreach(var BENCH GOLDEN OUT SCALE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "figure_golden_check: missing -D${var}")
    endif()
endforeach()

# A journal, fault plan or farm from the caller's environment must
# not leak into the comparison.
unset(ENV{FS_CHECKPOINT_DIR})
unset(ENV{FS_FAULTS})
unset(ENV{FS_EXECUTOR})
set(ENV{FS_BENCH_SCALE} ${SCALE})

foreach(jobs 1 4)
    set(ENV{FS_JOBS} ${jobs})
    set(out ${OUT}.jobs${jobs}.txt)
    execute_process(COMMAND ${BENCH}
                    OUTPUT_FILE ${out}
                    ERROR_FILE ${OUT}.jobs${jobs}.err
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "figure_golden_check: ${BENCH} exited "
                            "with ${rc} at FS_JOBS=${jobs}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${GOLDEN} ${out}
                    RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
                "figure_golden_check: FS_JOBS=${jobs} stdout differs "
                "from golden\n"
                "  golden: ${GOLDEN}\n"
                "  actual: ${out}\n"
                "If the change is intentional, regenerate the golden "
                "with the command from tests/golden/README.md and "
                "explain the figure change in the commit message.")
    endif()
endforeach()
