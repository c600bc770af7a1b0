// Storage-path fault injection seam.
//
// The ckpt layer tests its robustness the way the comm layer does: a
// `comm::FaultInjector` carrying IO events (`FaultEvent::io_fail_write`
// and friends) is installed process-wide here, and every storage seam —
// primary shard writes (Checkpointer), shard reads at restore
// (CheckpointReader), and uploader file copies — consults it via
// `FaultInjector::hit` before touching the filesystem. The slot is
// process-global because checkpoint IO already rendezvouses through
// process-global state (the save coordinator): one injector covers every
// rank of the in-process world, exactly like
// `Communicator::install_fault_injector` covers a group. Install nullptr
// to clear. The training driver installs its configured injector
// (idempotently, from every rank); `run_elastic` installs per attempt and
// clears on exit.
#pragma once

#include <memory>

namespace geofm::comm {
class FaultInjector;
}

namespace geofm::ckpt {

void install_io_fault_injector(
    std::shared_ptr<comm::FaultInjector> injector);
std::shared_ptr<comm::FaultInjector> io_fault_injector();

}  // namespace geofm::ckpt
