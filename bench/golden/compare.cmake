# Run one bench binary and compare its stdout byte for byte with the
# committed golden output:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file.txt> -DACTUAL=<out.txt>
#         -P compare.cmake
#
# The actual output is kept at ACTUAL so a mismatch can be inspected with
# `diff <golden> <actual>`. A deliberate behaviour change re-pins by copying
# ACTUAL over the golden file (and says why in the change log).
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "output differs from the golden:\n  diff ${GOLDEN} ${ACTUAL}")
endif()
