// Library characterisation: emit the Liberty-style description of the
// Table 2 library with one timing/power record per transistor
// configuration — the "library upgraded with more instances" the
// paper's conclusion (a) proposes.
//
// Usage: characterize_library [output.lib] [--canonical-only]

#include <fstream>
#include <iostream>

#include "celllib/library.hpp"
#include "characterize/liberty.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace tr;

  std::string out_path;
  celllib::LibertyOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--canonical-only") {
      options.all_configurations = false;
    } else {
      out_path = arg;
    }
  }

  try {
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;
    if (out_path.empty()) {
      celllib::write_liberty(library, tech, std::cout, options);
    } else {
      std::ofstream out(out_path);
      require(out.good(), "cannot open '", out_path, "'");
      celllib::write_liberty(library, tech, out, options);
      std::cout << "library written to " << out_path << " ("
                << library.size() << " cells)\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
