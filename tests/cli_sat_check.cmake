# CLI SAT answer, run as a ctest step:
#   gen_cnf <family args>  ->  neuroselect_solve [SOLVE_FLAGS]
# The CLI checks its model against the parsed formula before printing
# "s SATISFIABLE", so exit 10 with that status line means a checked model.
# Expected -D definitions: GEN_CNF, SOLVE (tool paths), FAMILY_ARGS
# (gen_cnf argv as a ;-list), WORKDIR, and optionally SOLVE_FLAGS (extra
# solver argv as a ;-list).

file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${GEN_CNF} ${FAMILY_ARGS}
  OUTPUT_FILE ${WORKDIR}/instance.cnf
  RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "gen_cnf ${FAMILY_ARGS} failed (exit ${gen_rc})")
endif()

execute_process(COMMAND ${SOLVE} ${SOLVE_FLAGS} ${WORKDIR}/instance.cnf
  OUTPUT_VARIABLE solve_out
  ERROR_VARIABLE solve_err
  RESULT_VARIABLE solve_rc)
if(NOT solve_rc EQUAL 10)
  message(FATAL_ERROR
      "expected SAT (exit 10) from solver, got exit ${solve_rc}\n"
      "${solve_out}${solve_err}")
endif()
if(NOT solve_out MATCHES "\ns SATISFIABLE\n")
  message(FATAL_ERROR "exit 10 without an \"s SATISFIABLE\" line")
endif()
if(solve_err MATCHES "model check failed")
  message(FATAL_ERROR "solver reported a failed model check")
endif()
