// fp_io.cpp — R6 IO fixture: stdio calls and stream uses fire exactly
// once each (the resolver leaves printf-family names to the body scan).
#include <fstream>

namespace rrp::core {

void emit(int v) {
  printf("%d\n", v);
}

void spill(int v) {
  std::ofstream f("spill.txt");
  f << v;
}

// A local named like a stream object is not IO; std::cout << and
// std::cin >> are.
int taps(int cin, int k) {
  return cin * k * k;
}

void echo(int v) {
  std::cout << v;
}

void slurp(int& v) {
  std::cin >> v;
}

// rrp-frame-path: io fixture root.
void fp_io_root(int v) {
  emit(v);
  spill(v);
  v = taps(v, 3);
  echo(v);
  slurp(v);
}

}  // namespace rrp::core
