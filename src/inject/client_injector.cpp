#include "inject/client_injector.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace wtc::inject {

std::string_view to_string(ErrorModel model) noexcept {
  switch (model) {
    case ErrorModel::ADDIF: return "ADDIF";
    case ErrorModel::DATAIF: return "DATAIF";
    case ErrorModel::DATAOF: return "DATAOF";
    case ErrorModel::DATAInF: return "DATAInF";
  }
  return "?";
}

ClientErrorInjector::ClientErrorInjector(vm::VmProcess& process,
                                         sim::Scheduler& scheduler,
                                         common::Rng rng,
                                         ClientInjectorConfig config)
    : process_(process),
      scheduler_(scheduler),
      rng_(rng),
      config_(config),
      cfg_(vm::Cfg::analyze(process.pristine())) {}

std::uint32_t ClientErrorInjector::pick_target() {
  if (config_.target == InjectTarget::DirectedCFI) {
    const std::vector<vm::CfiInfo>& sites = cfg_.cfis();  // sorted by site
    return sites[rng_.uniform(sites.size())].site;
  }
  return static_cast<std::uint32_t>(rng_.uniform(process_.pristine().size()));
}

std::uint8_t ClientErrorInjector::pick_bit() const {
  switch (config_.model) {
    case ErrorModel::DATAIF:
      return static_cast<std::uint8_t>(rng_.uniform(8));  // opcode byte
    case ErrorModel::DATAOF:
      return static_cast<std::uint8_t>(8 + rng_.uniform(56));  // operands
    case ErrorModel::DATAInF:
    case ErrorModel::ADDIF:
      return static_cast<std::uint8_t>(rng_.uniform(64));
  }
  return 0;
}

void ClientErrorInjector::arm() {
  target_pc_ = pick_target();
  bit_ = pick_bit();
  if (config_.model == ErrorModel::ADDIF) {
    // One address line flips: choose a bit of the fetch index wide enough
    // to stay meaningful for the program size.
    const auto width = static_cast<std::uint32_t>(
        std::bit_width(process_.pristine().size()));
    addr_mask_ = 1u << rng_.uniform(std::max(1u, width));
  }
  process_.set_breakpoint(target_pc_, [this](std::uint32_t) { plant(); });
}

void ClientErrorInjector::plant() {
  planted_ = true;
  // Count fetches of the erroneous instruction from now until restoration
  // — that is the activation window (the triggering thread plus any other
  // thread that wanders onto the planted word).
  process_.set_fetch_watch(target_pc_);
  if (config_.model == ErrorModel::ADDIF) {
    process_.arm_fetch_redirect(target_pc_, addr_mask_);
  } else {
    saved_word_ = process_.live_text()[target_pc_];
    process_.live_text()[target_pc_] = saved_word_ ^ (1ull << bit_);
  }
  scheduler_.schedule_after(static_cast<sim::Time>(kErrorWindow),
                            [this]() { restore(); });
}

void ClientErrorInjector::restore() {
  if (restored_) {
    return;
  }
  restored_ = true;
  activations_ = process_.fetch_watch_hits();
  process_.set_fetch_watch(0xFFFFFFFFu);  // stop counting: error is gone
  if (config_.model == ErrorModel::ADDIF) {
    process_.disarm_fetch_redirect();
  } else {
    process_.live_text()[target_pc_] = saved_word_;
  }
}

bool ClientErrorInjector::activated() const noexcept { return activations() > 0; }

std::uint64_t ClientErrorInjector::activations() const noexcept {
  return restored_ ? activations_ : process_.fetch_watch_hits();
}

}  // namespace wtc::inject
