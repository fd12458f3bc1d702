#include "network/discrimination_network.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/metrics.h"

namespace ariel {

Status DiscriminationNetwork::AddRule(RuleNetwork* rule) {
  ARIEL_RETURN_NOT_OK(selection_.AddRule(rule));
  rules_.push_back(rule);
  for (size_t i = 0; i < rule->num_vars(); ++i) {
    if (rule->alpha(i)->is_virtual()) {
      ++virtual_scan_relations_[rule->alpha(i)->spec().relation->id()];
    }
  }
  return Status::OK();
}

void DiscriminationNetwork::RemoveRule(RuleNetwork* rule) {
  selection_.RemoveRule(rule);
  rules_.erase(std::remove(rules_.begin(), rules_.end(), rule), rules_.end());
  dirty_dynamic_rules_.erase(std::remove(dirty_dynamic_rules_.begin(),
                                         dirty_dynamic_rules_.end(), rule),
                             dirty_dynamic_rules_.end());
  for (size_t i = 0; i < rule->num_vars(); ++i) {
    if (rule->alpha(i)->is_virtual()) {
      auto it = virtual_scan_relations_.find(
          rule->alpha(i)->spec().relation->id());
      if (it != virtual_scan_relations_.end() && --it->second == 0) {
        virtual_scan_relations_.erase(it);
      }
    }
  }
}

void DiscriminationNetwork::NoteArrival(RuleNetwork* rule) {
  ++arrivals_;
  Metrics().alpha_arrivals.Increment();
  if (rule->has_dynamic_memories() && !rule->dirty_dynamic()) {
    rule->set_dirty_dynamic(true);
    dirty_dynamic_rules_.push_back(rule);
  }
}

namespace {

/// One rule's share of a propagation: its arrivals in token order and the
/// outcome of running them.
struct RuleWork {
  RuleNetwork* rule = nullptr;
  std::vector<RuleNetwork::Arrival> arrivals;
  Status status;
  uint32_t failed_token = 0;
};

/// Error precedence: the failure at the earliest token, the lower rule
/// ordinal breaking ties. Per-token propagation reports the same failure,
/// since a rule's outcome on a token depends only on its own earlier
/// arrivals.
Status FirstFailure(const std::vector<RuleWork>& works) {
  const RuleWork* first = nullptr;
  for (const RuleWork& work : works) {
    if (work.status.ok()) continue;
    if (first == nullptr ||
        std::pair(work.failed_token, work.rule->ordinal()) <
            std::pair(first->failed_token, first->rule->ordinal())) {
      first = &work;
    }
  }
  return first == nullptr ? Status::OK() : first->status;
}

}  // namespace

Status DiscriminationNetwork::ProcessToken(const Token& token) {
  ScopedTimer timer(Metrics().token_process_ns);
  ++tokens_processed_;
  if (token_listener_) token_listener_(token);
  ARIEL_ASSIGN_OR_RETURN(std::vector<ConditionMatch> matches,
                         selection_.Match(token));
  const uint64_t epoch = AdvanceEpoch();
  token_arrivals_.clear();
  for (const ConditionMatch& match : matches) {
    NoteArrival(match.rule);
    token_arrivals_.push_back({0, static_cast<uint32_t>(match.alpha_ordinal)});
  }
  // Matches come out in registration-id order and a rule's conditions are
  // registered contiguously, so each rule's arrivals form one run. Every
  // run executes, and the lowest ordinal's failure wins: ProcessBatch's
  // precedence for a batch of one.
  Status failure;
  const RuleNetwork* failed_rule = nullptr;
  for (size_t begin = 0, end = 0; begin < matches.size(); begin = end) {
    RuleNetwork* rule = matches[begin].rule;
    while (end < matches.size() && matches[end].rule == rule) ++end;
    uint32_t failed_token = 0;
    Status status = rule->ArriveAll(
        {&token, 1}, std::span(token_arrivals_).subspan(begin, end - begin),
        epoch, &failed_token);
    if (!status.ok() &&
        (failed_rule == nullptr || rule->ordinal() < failed_rule->ordinal())) {
      failed_rule = rule;
      failure = std::move(status);
    }
  }
  return failure;
}

Status DiscriminationNetwork::ProcessBatch(const std::vector<Token>& tokens) {
  if (tokens.empty()) return Status::OK();
  EngineMetrics& m = Metrics();
  m.batch_flushes.Increment();
  m.batch_tokens_per_flush.Observe(tokens.size());

  // Stage 1: classify the whole batch through the selection network, then
  // run the listener and arrival bookkeeping in token order — the same
  // observable order per-token propagation produces — while routing each
  // rule's share of the batch into one work item.
  std::vector<std::vector<ConditionMatch>> matches;
  {
    ScopedTimer timer(m.batch_select_ns);
    ARIEL_ASSIGN_OR_RETURN(matches, selection_.MatchBatch(tokens));
  }
  const uint64_t first_epoch = epoch_ + 1;
  epoch_ += tokens.size();
  std::unordered_map<const RuleNetwork*, size_t> work_of;
  std::vector<RuleWork> works;
  for (size_t i = 0; i < tokens.size(); ++i) {
    ++tokens_processed_;
    if (token_listener_) token_listener_(tokens[i]);
    for (const ConditionMatch& match : matches[i]) {
      NoteArrival(match.rule);
      auto [it, fresh] = work_of.try_emplace(match.rule, works.size());
      if (fresh) works.emplace_back().rule = match.rule;
      works[it->second].arrivals.push_back(
          {static_cast<uint32_t>(i),
           static_cast<uint32_t>(match.alpha_ordinal)});
    }
  }

  // Stage 2: one task per matched rule, writing its own P-node. Rules own
  // disjoint α/β-memories and P-nodes and their match stamps do not depend
  // on evaluation order, so tasks touch no shared mutable state beyond
  // relaxed metric counters; base relations are read-only for the whole
  // flush (the hazard flush in TransitionManager guarantees it). Without a
  // pool the same tasks run inline, in order.
  m.match_tasks.Increment(works.size());
  std::vector<ThreadPool::Task> tasks;
  tasks.reserve(works.size());
  for (RuleWork& work : works) {
    tasks.push_back([&work, &tokens, first_epoch] {
      work.status = work.rule->ArriveAll(tokens, work.arrivals, first_epoch,
                                         &work.failed_token);
    });
  }
  {
    ScopedTimer timer(m.batch_match_ns);
    if (pool_ == nullptr) {
      for (ThreadPool::Task& task : tasks) task();
    } else {
      const uint64_t steals_before = pool_->steals();
      pool_->RunAll(std::move(tasks));
      m.match_steal_count.Increment(pool_->steals() - steals_before);
    }
  }
  return FirstFailure(works);
}

void DiscriminationNetwork::OnTransitionEnd() {
  // Only rules a token actually reached this transition can hold dynamic
  // state; flushing everything would make transitions O(#rules).
  for (RuleNetwork* rule : dirty_dynamic_rules_) {
    rule->FlushDynamicMemories();
    rule->set_dirty_dynamic(false);
  }
  dirty_dynamic_rules_.clear();
}

}  // namespace ariel
