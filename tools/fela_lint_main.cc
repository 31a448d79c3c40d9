// fela-lint: project hygiene/determinism checker. See src/lint/lint.h
// for the rule set and DESIGN.md §8 for rationale.
//
//   fela-lint [--rules=a,b] [--list-rules] [--bench-out=FILE] <path>...
//
// Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error.

#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return fela::lint::RunCli(args, std::cout, std::cerr);
}
