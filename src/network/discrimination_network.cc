#include "network/discrimination_network.h"

#include <algorithm>
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
  Schedule(rule);
  return Status::OK();
}

void DiscriminationNetwork::RemoveRule(RuleNetwork* rule) {
  selection_.RemoveRule(rule);
  rules_.erase(std::remove(rules_.begin(), rules_.end(), rule), rules_.end());
  dirty_dynamic_rules_.erase(std::remove(dirty_dynamic_rules_.begin(),
                                         dirty_dynamic_rules_.end(), rule),
                             dirty_dynamic_rules_.end());
  if (rule->scheduled()) {
    std::erase(agenda_, rule);
    rule->set_scheduled(false);
  }
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

void DiscriminationNetwork::Schedule(RuleNetwork* rule) {
  if (rule->scheduled() || rule->pnode()->empty()) return;
  rule->set_scheduled(true);
  agenda_.push_back(rule);
}

const std::vector<RuleNetwork*>& DiscriminationNetwork::PruneAgenda() {
  Metrics().rules_select_visits.Increment(agenda_.size());
  std::erase_if(agenda_, [](RuleNetwork* rule) {
    if (!rule->pnode()->empty()) return false;
    rule->set_scheduled(false);
    return true;
  });
  return agenda_;
}

Status DiscriminationNetwork::ProcessBatch(std::span<const Token> tokens) {
  if (tokens.empty()) return Status::OK();
  EngineMetrics& m = Metrics();
  ScopedTimer timer(m.token_process_ns);
  m.batch_flushes.Increment();
  m.batch_tokens_per_flush.Observe(tokens.size());
  for (const Token& token : tokens) {
    ++tokens_processed_;
    if (token_listener_) token_listener_(token);
  }

  // Stage 1: classify the whole batch through the selection network, then
  // route each rule's share of the batch, in token order, into one work
  // item. A rule's work slot lives on the rule for the flush; a rule with
  // dynamic memories joins the dirty set when it first gets one.
  ARIEL_RETURN_NOT_OK(selection_.MatchBatch(tokens, &matches_));
  const uint64_t first_epoch = epoch_ + 1;
  epoch_ += tokens.size();
  size_t num_works = 0;
  size_t num_arrivals = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    num_arrivals += matches_[i].size();
    for (const ConditionMatch& match : matches_[i]) {
      RuleNetwork* rule = match.rule;
      size_t slot = rule->work_slot();
      if (slot == RuleNetwork::kNoWorkSlot) {
        slot = num_works++;
        if (slot == works_.size()) works_.emplace_back();
        RuleWork& work = works_[slot];
        work.rule = rule;
        work.arrivals.clear();
        work.status = Status::OK();
        rule->set_work_slot(slot);
        if (rule->has_dynamic_memories() && !rule->dirty_dynamic()) {
          rule->set_dirty_dynamic(true);
          dirty_dynamic_rules_.push_back(rule);
        }
      }
      works_[slot].arrivals.push_back(
          {static_cast<uint32_t>(i),
           static_cast<uint32_t>(match.alpha_ordinal)});
    }
  }
  arrivals_ += num_arrivals;
  m.alpha_arrivals.Increment(num_arrivals);

  // Stage 2: one task per matched rule, writing its own P-node. Rules own
  // disjoint α/β-memories and P-nodes and their match stamps do not depend
  // on evaluation order, so tasks touch no shared mutable state beyond
  // relaxed metric counters; base relations are read-only for the whole
  // flush (the hazard flush in TransitionManager guarantees it). Without a
  // pool, and for a lone token or rule, whose work never pays for waking
  // the workers, the work runs inline, in order.
  m.match_tasks.Increment(num_works);
  auto run = [&tokens, first_epoch](RuleWork& work) {
    work.status = work.rule->ArriveAll(tokens, work.arrivals, first_epoch,
                                       &work.failed_token);
  };
  if (pool_ == nullptr || tokens.size() < 2 || num_works < 2) {
    for (size_t w = 0; w < num_works; ++w) run(works_[w]);
  } else {
    std::vector<ThreadPool::Task> tasks;
    tasks.reserve(num_works);
    for (size_t w = 0; w < num_works; ++w) {
      tasks.push_back([&run, work = &works_[w]] { run(*work); });
    }
    const uint64_t steals_before = pool_->steals();
    pool_->RunAll(std::move(tasks));
    m.match_steal_count.Increment(pool_->steals() - steals_before);
  }

  // The undo log is shared, so the P-node saves the tasks captured are
  // appended here, serially and in rule order: the log's content does not
  // depend on the thread count. Error precedence: the failure at the
  // earliest token, the lower rule ordinal breaking ties — what
  // propagating the tokens one at a time reports, since a rule's outcome on
  // a token depends only on its own earlier arrivals.
  const RuleWork* failed = nullptr;
  for (size_t w = 0; w < num_works; ++w) {
    RuleWork& work = works_[w];
    work.rule->pnode()->PublishJournal();
    work.rule->set_work_slot(RuleNetwork::kNoWorkSlot);
    Schedule(work.rule);
    if (!work.status.ok() &&
        (failed == nullptr ||
         std::pair(work.failed_token, work.rule->ordinal()) <
             std::pair(failed->failed_token, failed->rule->ordinal()))) {
      failed = &work;
    }
  }
  return failed == nullptr ? Status::OK() : failed->status;
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
