// json_verify: exit 0 iff every argument names a file containing exactly
// one well-formed JSON value (RFC 8259). Used by the CI bench-smoke job to
// check that --json_out sweep documents parse; shares the checker the unit
// tests use (tests/json_check.h).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/json_check.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      rc = 1;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    helios::testing::JsonChecker checker(text);
    if (!checker.Valid()) {
      std::fprintf(stderr, "%s: INVALID JSON at byte %zu\n", argv[i],
                   checker.error_pos());
      rc = 1;
      continue;
    }
    std::printf("%s: valid JSON (%zu bytes)\n", argv[i], text.size());
  }
  return rc;
}
