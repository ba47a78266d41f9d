// Runs the built scenario_runner binary (its path is FNE_SCENARIO_RUNNER,
// set by CMakeLists.txt) for tests of what a whole CLI process does.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace fne::testing {

struct CliRun {
  int exit_code = -1;  ///< -1 when the process did not exit normally
  std::string output;  ///< stdout and stderr, interleaved
};

/// `args` is appended to the quoted binary path as shell text.
[[nodiscard]] inline CliRun run_scenario_runner(const std::string& args) {
  const std::string command = std::string("'") + FNE_SCENARIO_RUNNER + "' " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

}  // namespace fne::testing
