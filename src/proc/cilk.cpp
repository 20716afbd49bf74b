#include "proc/cilk.hpp"

#include <algorithm>
#include <memory>

namespace ccmm::proc {

CilkProgram::CilkProgram() { strands_.push_back({}); }

NodeId CilkProgram::append(std::size_t strand, Op o, std::vector<NodeId> preds,
                           bool record) {
  CCMM_CHECK(!finished_, "program already finished");
  StrandState& s = strands_[strand];
  CCMM_CHECK(!s.closed, "strand already joined by a sync or adopt");
  if (s.current != kBottom) preds.push_back(s.current);
  const NodeId u = c_.node(o, preds);
  s.current = u;
  if (record) log_event(strand, {SpEvent::Kind::kNode, u, 0});
  return u;
}

std::size_t CilkProgram::spawn_from(std::size_t strand) {
  CCMM_CHECK(!finished_, "program already finished");
  CCMM_CHECK(!strands_[strand].closed,
             "strand already joined by a sync or adopt");
  StrandState child;
  child.parent = strand;
  // The child's first node hangs off the parent's position at spawn time
  // (the anchor). If the parent has no node yet, the child starts as a
  // source. The anchor also tells sync whether the child ever ran.
  child.current = strands_[strand].current;
  child.anchor = strands_[strand].current;
  const std::size_t index = strands_.size();
  strands_.push_back(child);
  log_event(strand, {SpEvent::Kind::kSpawn, kBottom,
                     static_cast<std::uint32_t>(index)});
  strands_[strand].outstanding.push_back(index);
  return index;
}

void CilkProgram::sync_strand(std::size_t strand) {
  StrandState& s = strands_[strand];
  if (s.outstanding.empty()) return;
  std::vector<NodeId> preds;
  bool any_child_ran = false;
  for (const std::size_t child : s.outstanding) {
    // Children are synced first (finish() guarantees it bottom-up; an
    // explicit parent sync adopts each child's chain end).
    sync_strand(child);
    strands_[child].closed = true;
    const NodeId last = strands_[child].current;
    if (last != strands_[child].anchor) {  // the child actually ran
      preds.push_back(last);
      any_child_ran = true;
    }
  }
  s.outstanding.clear();
  NodeId join = kBottom;
  if (any_child_ran)
    join = append(strand, Op::nop(), std::move(preds), /*record=*/false);
  log_event(strand, {SpEvent::Kind::kSync, join, 0});
}

CilkProgram::Strand& CilkProgram::Strand::op(Op o) {
  program_->append(index_, o, {});
  return *this;
}

CilkProgram::Strand CilkProgram::Strand::spawn() {
  return Strand(program_, program_->spawn_from(index_));
}

void CilkProgram::adopt_child(std::size_t strand, std::size_t child) {
  CCMM_CHECK(!finished_, "program already finished");
  CCMM_CHECK(strands_[child].parent == strand,
             "adopt requires a direct child of this strand");
  auto& outstanding = strands_[strand].outstanding;
  const auto it = std::find(outstanding.begin(), outstanding.end(), child);
  CCMM_CHECK(it != outstanding.end(), "child already synced or adopted");
  // A plain call keeps the caller suspended: its chain may not have moved
  // since the spawn, or the serial call semantics (callee precedes every
  // later caller instruction) would not hold.
  CCMM_CHECK(strands_[strand].current == strands_[child].anchor,
             "adopt requires no caller instruction between spawn and adopt");
  sync_strand(child);  // close the callee's own sync scope first
  strands_[child].closed = true;
  outstanding.erase(it);
  if (strands_[child].current != strands_[child].anchor)
    strands_[strand].current = strands_[child].current;
  log_event(strand, {SpEvent::Kind::kAdopt, kBottom,
                     static_cast<std::uint32_t>(child)});
}

CilkProgram::Strand& CilkProgram::Strand::adopt(Strand& callee) {
  program_->adopt_child(index_, callee.index_);
  return *this;
}

CilkProgram::Strand& CilkProgram::Strand::sync() {
  CCMM_CHECK(!program_->finished_, "program already finished");
  CCMM_CHECK(!program_->strands_[index_].closed,
             "strand already joined by a sync or adopt");
  program_->sync_strand(index_);
  return *this;
}

NodeId CilkProgram::Strand::position() const {
  return program_->strands_[index_].current;
}

Computation CilkProgram::finish() {
  CCMM_CHECK(!finished_, "program already finished");
  sync_strand(0);  // recursively joins the whole spawn tree
  finished_ = true;
  // Counting sort of the log into the strand table: offsets from the
  // per-strand counts, then one pass that drops each event in place.
  std::vector<std::size_t> offsets(strands_.size() + 1, 0);
  for (std::size_t i = 0; i < strands_.size(); ++i)
    offsets[i + 1] = offsets[i] + strands_[i].events;
  std::vector<SpEvent> events(events_.size());
  std::vector<std::size_t> at(offsets.begin(), offsets.end() - 1);
  for (const auto& [strand, e] : events_) events[at[strand]++] = e;
  events_ = {};
  auto sp = std::make_shared<SpStructure>();
  sp->offsets = std::move(offsets);
  sp->events = std::move(events);
  sp->node_count = c_.node_count();
  Computation c = std::move(c_).build();
  c.set_sp_structure(std::move(sp));
  return c;
}

}  // namespace ccmm::proc
