# End-to-end smoke for the flight-recorder trace tooling, run as a ctest:
#   1. run harvest_inspect --selftest, dumping the run as a Chrome Trace
#      Event JSON document,
#   2. feed the dump to harvest_trace — the report must contain the
#      per-stage table, the critical path and the pipeline.scavenge stage,
#   3. reject garbage input and a truncated dump with a nonzero exit.
# Driven by: cmake -DINSPECT=... -DTRACE=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
set(CHROME ${WORK_DIR}/trace.json)

function(run outvar)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

run(_ ${INSPECT} --selftest --trace ${CHROME})

run(report ${TRACE} ${CHROME})
foreach(want "per-stage aggregate timings" "critical path"
        "pipeline.scavenge")
  string(FIND "${report}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "harvest_trace report for ${CHROME} lacks '${want}':\n${report}")
  endif()
endforeach()

# Garbage input and a dump cut off mid-way must be rejected, not crash or
# report nonsense.
file(WRITE ${WORK_DIR}/garbage.json "this is not a trace\n")
file(READ ${CHROME} dump)
string(LENGTH "${dump}" dump_len)
math(EXPR half "${dump_len} / 2")
string(SUBSTRING "${dump}" 0 ${half} truncated)
file(WRITE ${WORK_DIR}/truncated.json "${truncated}")
foreach(bad ${WORK_DIR}/garbage.json ${WORK_DIR}/truncated.json)
  execute_process(COMMAND ${TRACE} ${bad}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(code EQUAL 0)
    message(FATAL_ERROR "harvest_trace accepted ${bad}")
  endif()
endforeach()
