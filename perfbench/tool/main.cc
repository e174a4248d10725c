// perfbench_tool: the compiled half of the bagcd loopback benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_tool gen <workload> <seed> <dir>
//       writes the workload's inputs and expected answers for <seed>
//   perfbench_tool ladder <workload> <dir> <plan> <scratch> <rounds>
//       replays the ops in <plan> in-process down the layer ladder
#include <cstdio>
#include <cstdlib>
#include <string>

namespace perfbench {
int RunGen(const std::string& workload, uint64_t seed, const std::string& dir);
int RunLadder(const std::string& workload, const std::string& dir,
              const std::string& plan, const std::string& scratch, size_t rounds);
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "gen" && argc == 5) {
    return perfbench::RunGen(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  if (mode == "ladder" && argc == 7) {
    return perfbench::RunLadder(argv[2], argv[3], argv[4], argv[5],
                                std::strtoull(argv[6], nullptr, 10));
  }
  std::fprintf(stderr,
               "usage: perfbench_tool gen <workload> <seed> <dir>\n"
               "       perfbench_tool ladder <workload> <dir> <plan> <scratch> <rounds>\n");
  return 2;
}
