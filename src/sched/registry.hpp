// Factory for the baseline schedulers by name. FVDF lives in core/ (it needs
// the codec and CPU substrates); sim/experiment.hpp exposes a combined
// factory covering everything.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace swallow::sched {

/// Known baseline names: FIFO, PFF, FAIR, WSS, PFP, SRTF, SEBF, SCF, NCF,
/// LCF, AALO (case-insensitive). FAIR is PFF relabelled, SRTF is PFP relabelled
/// (the paper uses both vocabularies for the flow-level and Spark contexts).
/// Throws std::out_of_range for unknown names.
std::unique_ptr<Scheduler> make_baseline(const std::string& name);

/// All distinct baseline names (aliases excluded).
std::vector<std::string> baseline_names();

/// The core-library scheduler names: FVDF, its ablations and DEADLINE-FVDF,
/// all built as one core::FvdfScheduler.
/// Listed here so error messages and --help can enumerate every scheduler
/// without this library linking against swallow_core; construction stays in
/// core::make_fvdf.
std::vector<std::string> core_scheduler_names();

/// Every known scheduler name (baselines + core), comma-joined for error
/// messages and usage text.
std::string known_scheduler_list();

}  // namespace swallow::sched
