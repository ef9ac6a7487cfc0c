# Runs a command and fails unless it exits with an expected code and
# prints an expected pattern (stdout or stderr):
#
#   cmake -DEXPECT_CODE=1 -DEXPECT_REGEX=pattern -P expect_exit.cmake
#         -- [NAME=VALUE...] program [args...]
#
# Leading NAME=VALUE words set environment variables for the program.
# A crash (a signal such as SIGABRT from std::terminate) is a failure.

set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_exit: no command after --")
endif()

# Set the variables here rather than through `cmake -E env`, which
# would report a crashed child as a plain exit code 1.
while(cmd)
    list(GET cmd 0 word)
    if(NOT word MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
        break()
    endif()
    set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
    list(REMOVE_AT cmd 0)
endwhile()

execute_process(COMMAND ${cmd}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    TIMEOUT 60)
message("${out}")
if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got '${code}'")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
