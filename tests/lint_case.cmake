# Negative-test driver shared by the three static analyzers (arch_lint,
# con_lint, hot_lint; fault-injection style, like test_audit): runs the
# analyzer over a seeded fixture tree under tests/fixtures/<tool>/ and
# asserts that
#   (a) the run exits nonzero, and
#   (b) the diagnostic names the expected rule, e.g. [layering],
#       [lock-order-cycle] or [allocation].
#
# Variables (passed via -D): LINT (analyzer binary), ROOT, EXPECT_RULE, and
# optionally LINT_ARGS (extra arguments as one space-separated string; the
# archcheck self-contained case passes `--compile-headers --compiler <cxx>`,
# the only rule that shells out to a compiler).

foreach(required LINT ROOT EXPECT_RULE)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "lint_case: ${required} not set")
  endif()
endforeach()

separate_arguments(extra_args UNIX_COMMAND "${LINT_ARGS}")
get_filename_component(tool "${LINT}" NAME_WE)

execute_process(
  COMMAND "${LINT}" --root "${ROOT}" ${extra_args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE res)
message(STATUS "${tool} exit ${res}\n${out}${err}")

if(res EQUAL 0)
  message(FATAL_ERROR
      "lint_case: expected a [${EXPECT_RULE}] violation in ${ROOT}, "
      "but ${tool} exited 0")
endif()
if(NOT out MATCHES "\\[${EXPECT_RULE}\\]")
  message(FATAL_ERROR
      "lint_case: ${tool} exited ${res} but emitted no "
      "[${EXPECT_RULE}] diagnostic")
endif()
