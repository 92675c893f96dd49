// Fixture (never compiled): both analyze:allow(alloc) placements that
// suppress — on the allocation site and on a declaration (leaf waiver) —
// must each silence the hot-alloc report. Expect zero findings from this
// file. (A waiver on a call line does not cover the callee; see
// hot_waived_call.cc.)
#include <vector>

namespace fixture {

void LeafGrow(std::vector<int>& v);  // analyze:allow(alloc): decl-level leaf waiver

void LeafGrow(std::vector<int>& v) {
  v.push_back(1);  // unreported: LeafGrow is a waived leaf everywhere
}

ADPA_HOT void HotSiteWaiver(std::vector<int>& v) {
  v.push_back(2);  // analyze:allow(alloc): site waiver
}

ADPA_HOT void HotLeafWaiver(std::vector<int>& v) {
  LeafGrow(v);
}

}  // namespace fixture
