// Registry of named runtime invariants (the auditor half of this PR's
// correctness tooling; the static half lives in tools/lint/).
//
// Subsystems register closures that inspect live simulation state and
// return whether a property still holds. The driver runs the registry at
// the phases each invariant subscribed to: once at end-of-run (level 1)
// and on a periodic simulated-time cadence (level 2). Transition-time
// checks (level 2) do not go through the registry -- they are validated
// inline by the observing hook and reported here via ReportFailure.
//
// The registry is ordinary code, unit-testable on its own. A run's
// audit_level decides whether anything instantiates it (a
// SimulationAudit is built only at level >= 1).
#ifndef DMASIM_AUDIT_INVARIANT_AUDITOR_H_
#define DMASIM_AUDIT_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace dmasim {

// When a registered invariant is evaluated.
enum class AuditPhase : unsigned {
  kEndOfRun = 1u << 0,  // Once, after the trace (and drain) finished.
  kPeriodic = 1u << 1,  // Every SimulationOptions::audit_period ticks.
};

constexpr unsigned operator|(AuditPhase a, AuditPhase b) {
  return static_cast<unsigned>(a) | static_cast<unsigned>(b);
}
constexpr unsigned operator|(unsigned a, AuditPhase b) {
  return a | static_cast<unsigned>(b);
}

struct AuditFailure {
  std::string invariant;
  std::string message;
};

class InvariantAuditor {
 public:
  enum class Mode {
    kAbort,    // A violated invariant aborts the process with diagnostics.
    kCollect,  // Violations accumulate in failures() (for tests).
  };

  // Returns true when the invariant holds; on failure may fill *message
  // (never null) with a diagnostic.
  using InvariantFn = std::function<bool(std::string* message)>;

  explicit InvariantAuditor(Mode mode = Mode::kAbort) : mode_(mode) {}

  // Registers `fn` under `name` for every phase in the `phases` bitmask.
  void Register(std::string name, unsigned phases, InvariantFn fn);
  void Register(std::string name, AuditPhase phase, InvariantFn fn) {
    Register(std::move(name), static_cast<unsigned>(phase), std::move(fn));
  }

  // Evaluates every invariant subscribed to `phase`. Returns the number
  // of failures detected in this pass (always 0 in kAbort mode, which
  // does not return on failure).
  int RunPhase(AuditPhase phase);

  // Records a violation detected outside the registry (transition-time
  // hooks). Aborts in kAbort mode.
  void ReportFailure(const std::string& invariant, const std::string& message);

  Mode mode() const { return mode_; }
  std::uint64_t checks_run() const { return checks_run_; }
  const std::vector<AuditFailure>& failures() const { return failures_; }
  std::size_t registered_count() const { return invariants_.size(); }
  std::vector<std::string> InvariantNames() const;

 private:
  struct Entry {
    std::string name;
    unsigned phases = 0;
    InvariantFn fn;
  };

  Mode mode_;
  std::vector<Entry> invariants_;
  std::vector<AuditFailure> failures_;
  std::uint64_t checks_run_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_AUDIT_INVARIANT_AUDITOR_H_
