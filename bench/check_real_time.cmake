# Fails when a threaded bench case does not run on real time.
#
# google-benchmark times a case with the main thread's CPU clock unless the
# case calls UseRealTime(). With a worker pool the main thread mostly waits,
# so that clock under-counts the work and every kIsRate counter divides by
# the wrong time. In the checked binaries every argument list carries a
# thread count, so every case with arguments must end in "/real_time".
#
# Usage: cmake -DBENCH=<bench binary> -P check_real_time.cmake
execute_process(COMMAND ${BENCH} --benchmark_list_tests
                OUTPUT_VARIABLE listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} --benchmark_list_tests exited with ${status}")
endif()
string(REPLACE "\n" ";" cases "${listing}")
set(threaded 0)
set(cpu_timed "")
foreach(name IN LISTS cases)
  if(NOT name MATCHES "^BM_[^/]+/")
    continue()
  endif()
  math(EXPR threaded "${threaded} + 1")
  if(NOT name MATCHES "/real_time$")
    list(APPEND cpu_timed "${name}")
  endif()
endforeach()
if(threaded EQUAL 0)
  message(FATAL_ERROR "${BENCH} lists no cases with arguments")
endif()
if(cpu_timed)
  string(REPLACE ";" "\n  " cpu_timed "${cpu_timed}")
  message(FATAL_ERROR "cases without UseRealTime():\n  ${cpu_timed}")
endif()
message(STATUS "${threaded} threaded cases, all on real time")
