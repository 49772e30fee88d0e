// fp_std_receiver.cpp — call-graph edge case: a member call whose receiver
// is declared with a std:: type (parameter or local, value, reference or
// pointer) names the standard library and adds no edge, even when a
// project method shares its name; a project-typed receiver's call of the
// same name still links.  Growth names stay findings on any receiver.
#include <vector>

namespace rrp::core {

class Journal;
int fp_std_receiver_root(std::vector<int>& pending, Journal& journal);

class Journal {
 public:
  // Re-enters the std-receiver root: an edge from that root's clear()
  // calls would close a cycle.
  void clear() {
    int* scratch = new int[4];
    scratch[0] = fp_std_receiver_root(pending_, *this);
  }

 private:
  std::vector<int> pending_;
};

// rrp-frame-path: std-typed receivers only.
int fp_std_receiver_root(std::vector<int>& pending, Journal& journal) {
  pending.clear();
  std::vector<int>* spare = &pending;
  spare->clear();
  pending.reserve(8);
  return static_cast<int>(pending.size());
}

// rrp-frame-path: a project-typed receiver.
void fp_project_receiver_root(Journal& journal) { journal.clear(); }

}  // namespace rrp::core
