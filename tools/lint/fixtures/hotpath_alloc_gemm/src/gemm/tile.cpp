#include <vector>
void tiles() {
  // tfno-hot-begin: tile bodies
  std::vector<float> panel(64);  // BAD: a heap panel per parallel chunk
  // tfno-hot-end
}
