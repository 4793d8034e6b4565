# CLI resource exhaustion, run as a ctest step: a header declaring two
# billion variables, solved under a 1 GB address-space limit (the shell's
# `ulimit -v`), must end in exit 1 with a "c error:" line on stderr rather
# than an uncaught std::bad_alloc abort. (A 4 GB limit fails the same way,
# but only after the solver has touched most of it.)
# Expected -D definitions: SOLVE (tool path), WORKDIR.

file(MAKE_DIRECTORY ${WORKDIR})
file(WRITE ${WORKDIR}/huge_header.cnf "p cnf 2000000000 1\n1 0\n")

execute_process(
  COMMAND sh -c "ulimit -v 1000000 && exec \"$0\" \"$1\""
          ${SOLVE} ${WORKDIR}/huge_header.cnf
  OUTPUT_VARIABLE solve_out
  ERROR_VARIABLE solve_err
  RESULT_VARIABLE solve_rc)
if(NOT solve_rc EQUAL 1)
  message(FATAL_ERROR
      "expected exit 1 under ulimit -v 1000000, got ${solve_rc}\n"
      "${solve_out}${solve_err}")
endif()
if(NOT solve_err MATCHES "c error: ")
  message(FATAL_ERROR "exit 1 without a \"c error:\" line\n${solve_err}")
endif()
