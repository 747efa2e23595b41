# Command-line contract checks for the operator binaries, run by ctest as
# `cmake -D... -P cli_contract.cmake` (tests/CMakeLists.txt).
#
# Reject mode — -DCMD="<binary> <args>" -DEXPECT=<regex> [-DNO_FILE=<path>]:
#   the command must exit with a non-zero code (not die on a signal), print
#   output matching EXPECT, and leave NO_FILE uncreated.
#
# Documented-commands mode — -DWORKBENCH=<binary> -DDOCS=<md>|<md>...
#   -DWORK_DIR=<dir>: every line of the docs that starts with
#   `dcs_workbench` (backslash continuations joined) runs in order with
#   /tmp/dcs replaced by WORK_DIR and must exit 0. The same line with an
#   extra `--not-a-flag` must be rejected, which shows the binary's parser
#   is strict enough for the passing run to vouch for every flag.

function(run_command args out_result out_output)
  execute_process(COMMAND ${args}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  set(${out_result} "${result}" PARENT_SCOPE)
  set(${out_output} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

function(expect_rejected args regex)
  run_command("${args}" result output)
  if(NOT result MATCHES "^[0-9]+$" OR result EQUAL 0)
    message(FATAL_ERROR "expected a usage error exit, got '${result}' "
                        "from: ${args}\n${output}")
  endif()
  if(NOT output MATCHES "${regex}")
    message(FATAL_ERROR "output does not match '${regex}' for: ${args}\n"
                        "${output}")
  endif()
endfunction()

if(DEFINED CMD)
  separate_arguments(args UNIX_COMMAND "${CMD}")
  if(DEFINED NO_FILE)
    file(REMOVE "${NO_FILE}")
  endif()
  expect_rejected("${args}" "${EXPECT}")
  if(DEFINED NO_FILE AND EXISTS "${NO_FILE}")
    message(FATAL_ERROR "${NO_FILE} was created before the flags were checked")
  endif()
  return()
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ran 0)
string(REPLACE "|" ";" docs "${DOCS}")
foreach(doc IN LISTS docs)
  # Split on newlines by hand, with the characters that CMake lists treat
  # specially ([ ] ; \) masked: file(STRINGS) would merge or split lines.
  file(READ "${doc}" text)
  string(REPLACE "\\" "<bs>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(pending "")
  foreach(line IN LISTS lines)
    if(pending STREQUAL "" AND NOT line MATCHES "^dcs_workbench ")
      continue()
    endif()
    string(APPEND pending " ${line}")
    if(line MATCHES "<bs>$")
      string(REGEX REPLACE "<bs>$" "" pending "${pending}")
      continue()
    endif()
    string(REPLACE "/tmp/dcs" "${WORK_DIR}" pending "${pending}")
    string(REGEX REPLACE "^ *dcs_workbench" "" pending "${pending}")
    separate_arguments(args UNIX_COMMAND "${pending}")
    set(pending "")
    run_command("${WORKBENCH};${args}" result output)
    if(NOT result EQUAL 0)
      list(JOIN args " " shown)
      message(FATAL_ERROR "documented command failed (${result}): "
                          "dcs_workbench ${shown}\n${output}")
    endif()
    expect_rejected("${WORKBENCH};${args};--not-a-flag" "--not-a-flag")
    math(EXPR ran "${ran} + 1")
  endforeach()
endforeach()
if(ran EQUAL 0)
  message(FATAL_ERROR "no dcs_workbench command lines found in ${DOCS}")
endif()
message(STATUS "${ran} documented dcs_workbench commands ran")
