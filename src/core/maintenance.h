// MaintenanceTask: a background job the coordinator drives at quiesced
// time-step boundaries (EndTimeStep), when no query is in flight and the
// topology may be mutated safely.
//
// The indirection keeps the dependency arrow pointing the right way: the
// recovery subsystem (src/recovery/) links against ecc_core and implements
// this interface; the coordinators only hold the abstract hook, so core
// never depends on recovery.
#pragma once

namespace ecc::core {

class MaintenanceTask {
 public:
  virtual ~MaintenanceTask() = default;

  /// Run one maintenance round.  Called with the system quiesced (no
  /// coordinator worker has a query in flight), so the task may use the
  /// full exclusive-topology API of the backend.
  virtual void Tick() = 0;
};

}  // namespace ecc::core
