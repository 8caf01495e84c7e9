// Observer interface through which a MemoryChip streams auditable facts
// to the invariant auditor. Kept to this tiny header so src/mem depends
// only on the interface, never on the auditor implementation.
//
// Every chip carries a sink pointer; it stays null (one untaken branch per
// energy segment and transition) unless a SimulationAudit attaches itself
// for a run with audit_level >= 1.
#ifndef DMASIM_AUDIT_CHIP_AUDIT_SINK_H_
#define DMASIM_AUDIT_CHIP_AUDIT_SINK_H_

#include "mem/power_model.h"
#include "stats/energy.h"
#include "util/time.h"
#include "util/units.h"

namespace dmasim {

class ChipAuditSink {
 public:
  virtual ~ChipAuditSink() = default;

  // A power-state transition of chip `chip` completed: it left `from` and
  // settled in `to` over the simulated interval [start, end]. `up` is the
  // chip's own classification (wake vs step-down).
  virtual void OnPowerTransition(int chip, PowerState from, PowerState to,
                                 bool up, Tick start, Tick end) = 0;

  // Chip `chip` integrated `joules` of energy into `bucket` over
  // `duration`. Called with the exact value the chip adds to its own
  // breakdown, in the same order, so a sink can maintain a bit-identical
  // shadow sum.
  virtual void OnEnergyAccounted(int chip, EnergyBucket bucket,
                                 JoulesEnergy joules, Ticks duration) = 0;
};

}  // namespace dmasim

#endif  // DMASIM_AUDIT_CHIP_AUDIT_SINK_H_
