// wirebench: the repository's end-to-end benchmark over the wire.
//
//   wirebench run --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--dir=RUN_DIR] [--commit=SHA]
//   wirebench serve ...        (spawned by `run`; see serve.cc)
//   wirebench selftest         harness self-tests
//   wirebench names            the metric names and units it prints
//
// Normally driven through run.py, which builds this binary first.

#include <unistd.h>

#include <iostream>
#include <string>

#include "harness.h"
#include "util/flags.h"
#include "workloads.h"

namespace wirebench {
int RunMain(const distperm::util::Flags& flags, const std::string& exe);
int ServeMain(const distperm::util::Flags& flags);
}  // namespace wirebench

namespace {

std::string SelfExe(const char* argv0) {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return argv0;
  path[n] = '\0';
  return path;
}

int Names() {
  for (const auto& [name, unit] : wirebench::EndToEndMetrics()) {
    std::cout << "end_to_end " << name << " " << unit << "\n";
  }
  for (const auto& [name, unit] : wirebench::PerLayerMetrics()) {
    std::cout << "per_layer " << name << " " << unit << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok() || flags.value().positional().empty()) {
    std::cerr << "usage: wirebench run|serve|selftest|names [--flags]\n";
    return 2;
  }
  const std::string command = flags.value().positional()[0];
  if (command == "run") return wirebench::RunMain(flags.value(), SelfExe(argv[0]));
  if (command == "serve") return wirebench::ServeMain(flags.value());
  if (command == "names") return Names();
  if (command == "selftest") {
    const int failures = wirebench::RunSelfTests();
    for (const auto* list :
         {&wirebench::EndToEndMetrics(), &wirebench::PerLayerMetrics()}) {
      for (const auto& [name, unit] : *list) {
        if (!wirebench::ValidMetricName(name)) {
          std::cerr << "selftest FAILED: metric name " << name << "\n";
          return 1;
        }
      }
    }
    std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                : "selftest: failures\n");
    return failures == 0 ? 0 : 1;
  }
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
