# Writes the two forged shard files the example_sweep_merge_rejects_
# forged_* tests feed to `sweep_runner --merge`, each edited from the
# real shard file SHARD:
#   OUT_DIR/forged_count.json  scenario_count raised to 2^62 over the
#                              file's valid range;
#   OUT_DIR/forged_grid.json   every grid axis repeats its first value
#                              1000 times, declaring 10^18 cells.
# Usage: cmake -DSHARD=<shard.json> -DOUT_DIR=<dir> -P forge_shard.cmake
file(READ "${SHARD}" doc)

string(REGEX REPLACE "\"scenario_count\":[0-9]+"
  "\"scenario_count\":4611686018427387904" forged "${doc}")
file(WRITE "${OUT_DIR}/forged_count.json" "${forged}")

set(forged "${doc}")
foreach(axis task_counts utilizations detector_cost_ns stop_poll_latency_ns
             core_counts quantizer_resolution_ns)
  set(key "\"${axis}\":[")
  string(FIND "${forged}" "${key}" open)
  string(LENGTH "${key}" key_length)
  math(EXPR first "${open} + ${key_length}")
  string(SUBSTRING "${forged}" 0 ${first} before)
  string(SUBSTRING "${forged}" ${first} -1 rest)
  string(FIND "${rest}" "]" close)
  string(SUBSTRING "${rest}" ${close} -1 after)
  string(SUBSTRING "${rest}" 0 ${close} values)
  string(FIND "${values}" "," comma)
  if(NOT comma EQUAL -1)
    string(SUBSTRING "${values}" 0 ${comma} values)
  endif()
  string(REPEAT "${values}," 999 repeated)
  set(forged "${before}${repeated}${values}${after}")
endforeach()
file(WRITE "${OUT_DIR}/forged_grid.json" "${forged}")
