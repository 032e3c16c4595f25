// Umbrella header: the full public API of the WRT-Ring reproduction.
//
//   #include "wrt.hpp"
//
// pulls in the protocol engine, the TPT baseline, the analytical bounds and
// every substrate.  Fine-grained consumers should include the individual
// module headers instead (each is self-contained).
#pragma once

#include "analysis/allocation.hpp"   // IWYU pragma: export
#include "analysis/delay_model.hpp"  // IWYU pragma: export
#include "analysis/bounds.hpp"       // IWYU pragma: export
#include "analysis/schedulability.hpp"  // IWYU pragma: export
#include "cdma/channel.hpp"          // IWYU pragma: export
#include "cdma/code_assignment.hpp"  // IWYU pragma: export
#include "diffserv/diffserv.hpp"     // IWYU pragma: export
#include "phy/link_quality.hpp"      // IWYU pragma: export
#include "phy/mobility.hpp"          // IWYU pragma: export
#include "phy/topology.hpp"          // IWYU pragma: export
#include "ring/frame.hpp"            // IWYU pragma: export
#include "ring/virtual_ring.hpp"     // IWYU pragma: export
#include "sim/batch_means.hpp"       // IWYU pragma: export
#include "sim/replication.hpp"       // IWYU pragma: export
#include "sim/scheduler.hpp"         // IWYU pragma: export
#include "sim/stats.hpp"             // IWYU pragma: export
#include "tpt/allocation.hpp"        // IWYU pragma: export
#include "tpt/engine.hpp"            // IWYU pragma: export
#include "tpt/tree.hpp"              // IWYU pragma: export
#include "traffic/trace.hpp"         // IWYU pragma: export
#include "traffic/workloads.hpp"     // IWYU pragma: export
#include "traffic/traffic.hpp"       // IWYU pragma: export
#include "util/args.hpp"             // IWYU pragma: export
#include "util/log.hpp"              // IWYU pragma: export
#include "util/result.hpp"           // IWYU pragma: export
#include "util/rng.hpp"              // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
#include "util/types.hpp"            // IWYU pragma: export
#include "wrtring/admission.hpp"     // IWYU pragma: export
#include "wrtring/engine.hpp"        // IWYU pragma: export
#include "wrtring/gateway.hpp"       // IWYU pragma: export
#include "wrtring/report.hpp"        // IWYU pragma: export
#include "wrtring/multiring.hpp"     // IWYU pragma: export
#include "wrtring/scenario.hpp"      // IWYU pragma: export
