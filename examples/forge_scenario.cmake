# Writes the two scenario files the example_scenario_runner_rejects_*
# tests feed to scenario_runner, each a copy of the scenario SCENARIO
# with its [system] horizon edited:
#   OUT_DIR/zero_horizon.rtft  horizon = 0s, a duration the parser
#                              refuses as a horizon;
#   OUT_DIR/huge_horizon.rtft  horizon = 1e300s, past int64 nanoseconds.
# Usage: cmake -DSCENARIO=<file.rtft> -DOUT_DIR=<dir> -P forge_scenario.cmake
file(READ "${SCENARIO}" text)
foreach(forgery "zero;0s" "huge;1e300s")
  list(GET forgery 0 name)
  list(GET forgery 1 value)
  string(REGEX REPLACE "\nhorizon = [^\n]*" "\nhorizon = ${value}" forged
    "${text}")
  file(WRITE "${OUT_DIR}/${name}_horizon.rtft" "${forged}")
endforeach()
