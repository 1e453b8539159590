#include "pecos/plan.hpp"

namespace wtc::pecos {

Plan Plan::instrument(const vm::Program& program) {
  return from_cfg(vm::Cfg::analyze(program));
}

Plan Plan::from_cfg(vm::Cfg cfg) {
  Plan plan;
  plan.cfg_ = std::move(cfg);

  // Return points: instruction after every call-class CFI, in site order.
  for (const vm::CfiInfo& info : plan.cfg_.cfis()) {
    if (info.kind == vm::CfiKind::Call || info.kind == vm::CfiKind::IndirectCall) {
      plan.return_points_.push_back(info.site + 1);
    }
  }

  plan.assertions_.reserve(plan.cfg_.cfis().size());
  for (const vm::CfiInfo& info : plan.cfg_.cfis()) {
    Assertion assertion;
    assertion.kind = info.kind;
    assertion.site = info.site;
    assertion.block_leader = info.block_leader;
    assertion.icall_reg = info.icall_reg;
    plan.assertions_.push_back(assertion);
  }
  plan.bind_targets();
  return plan;
}

void Plan::bind_targets() noexcept {
  const std::vector<vm::CfiInfo>& cfis = cfg_.cfis();
  for (std::size_t i = 0; i < assertions_.size(); ++i) {
    switch (assertions_[i].kind) {
      case vm::CfiKind::Jump:
      case vm::CfiKind::Branch:
      case vm::CfiKind::Call:
        assertions_[i].valid_targets = cfis[i].static_targets();
        break;
      case vm::CfiKind::Ret:
        assertions_[i].valid_targets = return_points_;
        break;
      case vm::CfiKind::IndirectCall:
        break;  // runtime-computed from icall_reg
    }
  }
}

Plan::Plan(const Plan& other)
    : cfg_(other.cfg_),
      assertions_(other.assertions_),
      return_points_(other.return_points_) {
  bind_targets();
}

Plan::Plan(Plan&& other) noexcept
    : cfg_(std::move(other.cfg_)),
      assertions_(std::move(other.assertions_)),
      return_points_(std::move(other.return_points_)) {
  bind_targets();
}

Plan& Plan::operator=(const Plan& other) {
  if (this != &other) {
    *this = Plan(other);
  }
  return *this;
}

Plan& Plan::operator=(Plan&& other) noexcept {
  if (this != &other) {
    cfg_ = std::move(other.cfg_);
    assertions_ = std::move(other.assertions_);
    return_points_ = std::move(other.return_points_);
    bind_targets();
  }
  return *this;
}

bool figure7_valid(std::uint32_t xout,
                   std::span<const std::uint32_t> targets) noexcept {
  // Literal formulation: P accumulates the product of (Xout - Xi) in
  // wrap-around arithmetic; any exact match zeroes it permanently.
  std::uint64_t product = 1;
  for (const std::uint32_t target : targets) {
    if (xout == target) {
      return true;  // the product is exactly zero: ID = Xout / !0 computes
    }
    product *= (static_cast<std::uint64_t>(xout) - target);
  }
  // No factor was zero, so logically !P == 0 and ID = Xout / 0 would
  // fault. (The wrap-around product is only reported for transparency; a
  // zero here can only come from a genuine match handled above.)
  (void)product;
  return false;
}

}  // namespace wtc::pecos
