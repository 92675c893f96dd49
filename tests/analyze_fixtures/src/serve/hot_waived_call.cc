// Fixture (never compiled): a site waiver on a line that also calls a
// function covers that line's own allocation only. The callee is still
// walked, so the resize() inside MakeRow is reported (once, with the chain
// back to the hot root) while the waived push_back is not.
#include <vector>

namespace fixture {

std::vector<int> MakeRow(int n) {
  std::vector<int> row;
  row.resize(n);
  return row;
}

ADPA_HOT void HotWaivedLineCall(std::vector<std::vector<int>>& rows) {
  rows.push_back(MakeRow(4));  // analyze:allow(alloc): caller reserved rows
}

}  // namespace fixture
