# Runs the command given after `--` and fails unless it exits with code
# EXIT and, when OUTPUT is non-empty, its stdout matches the regex OUTPUT
# (and likewise its stderr the regex ERROR). A plain ctest entry only
# tells zero from nonzero; the tool tests must tell exit 1 (the gate
# failed) from exit 2 (usage or parse error).
#
#   cmake -DEXIT=1 [-DOUTPUT=REGEX] [-DERROR=REGEX] -P expect_exit.cmake --
#         PROGRAM ARGS...
cmake_minimum_required(VERSION 3.16)

set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${code}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT}")
endif()
if(NOT "${OUTPUT}" STREQUAL "" AND NOT "${out}" MATCHES "${OUTPUT}")
  message(FATAL_ERROR "output does not match: ${OUTPUT}")
endif()
if(NOT "${ERROR}" STREQUAL "" AND NOT "${err}" MATCHES "${ERROR}")
  message(FATAL_ERROR "error output does not match: ${ERROR}")
endif()
