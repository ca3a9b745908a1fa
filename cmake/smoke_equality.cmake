# Runs ${BENCH_BIN} --smoke twice — serial (--jobs 1) and parallel
# (--jobs 4) — and fails unless both succeed with byte-identical stdout.
# This is the ctest-level guarantee that the thread-pool evaluation engine
# cannot change any reported number.

if(NOT DEFINED BENCH_BIN)
  message(FATAL_ERROR "BENCH_BIN not set")
endif()

execute_process(COMMAND ${BENCH_BIN} --smoke --jobs 1
                OUTPUT_VARIABLE serial_out
                RESULT_VARIABLE serial_rc)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} --smoke --jobs 1 failed: ${serial_rc}")
endif()

execute_process(COMMAND ${BENCH_BIN} --smoke --jobs 4
                OUTPUT_VARIABLE parallel_out
                RESULT_VARIABLE parallel_rc)
if(NOT parallel_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} --smoke --jobs 4 failed: ${parallel_rc}")
endif()

if(NOT serial_out STREQUAL parallel_out)
  message(FATAL_ERROR "parallel output differs from serial output:\n"
                      "--- jobs=1 ---\n${serial_out}\n"
                      "--- jobs=4 ---\n${parallel_out}")
endif()
