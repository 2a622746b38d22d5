#include "src/kv/kv_server.h"

#include <utility>

namespace kv {

KvServer::KvServer(sim::Simulator* simulator, std::string id, KvServerConfig config)
    : sim_(simulator), id_(std::move(id)), cfg_(config) {}

sim::Time KvServer::ScheduleOp() {
  const sim::Time now = sim_->now();
  const sim::Time start = busy_until_ > now ? busy_until_ : now;
  const sim::Time done = start + cfg_.op_service_time;
  busy_until_ = done;
  cpu_.AddBusy(cfg_.op_service_time);
  return done;
}

void KvServer::Respond(std::function<void()> deliver) {
  if (response_delay_ > 0) {
    // Gray failure: the op already executed (store mutated, CPU charged);
    // only the answer limps back late.
    sim_->After(response_delay_, std::move(deliver));
  } else {
    deliver();
  }
}

sim::Duration KvServer::QueueDelayNow() const {
  const sim::Time now = sim_->now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

void KvServer::Store(const std::string& key, std::string value) {
  const auto [item, inserted] = items_.TryEmplace(key);
  item->value = std::move(value);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, item->lru_pos);
    return;
  }
  lru_.push_front(key);
  item->lru_pos = lru_.begin();
  EvictIfNeeded();
}

void KvServer::EvictIfNeeded() {
  while (items_.size() > cfg_.max_items && !lru_.empty()) {
    items_.Erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void KvServer::Get(const std::string& key, GetCallback cb) {
  audit_.Check();
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.gets;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, cb = std::move(cb)]() {
    if (failed_) {
      return;  // Crashed while the op was queued: response is lost.
    }
    const Item* item = items_.Find(key);
    if (item == nullptr) {
      ++stats_.misses;
      Respond([cb = std::move(cb)]() { cb(std::nullopt); });
    } else {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, item->lru_pos);
      Respond([cb = std::move(cb), value = item->value]() { cb(value); });
    }
  });
}

void KvServer::Set(const std::string& key, std::string value, AckCallback cb) {
  audit_.Check();
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.sets;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, value = std::move(value), cb = std::move(cb)]() mutable {
    if (failed_) {
      return;
    }
    Store(key, std::move(value));
    Respond([cb = std::move(cb)]() { cb(true); });
  });
}

void KvServer::Cas(const std::string& key, std::optional<std::string> expected,
                   std::string value, AckCallback cb) {
  audit_.Check();
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.cas_ops;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, expected = std::move(expected), value = std::move(value),
                  cb = std::move(cb)]() mutable {
    if (failed_) {
      return;
    }
    const Item* item = items_.Find(key);
    const bool match = item == nullptr ? !expected.has_value()
                                       : (expected.has_value() && item->value == *expected);
    if (!match) {
      ++stats_.cas_conflicts;
      Respond([cb = std::move(cb)]() { cb(false); });
      return;
    }
    Store(key, std::move(value));
    Respond([cb = std::move(cb)]() { cb(true); });
  });
}

void KvServer::Delete(const std::string& key, AckCallback cb) {
  audit_.Check();
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.deletes;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, cb = std::move(cb)]() {
    if (failed_) {
      return;
    }
    if (const Item* item = items_.Find(key)) {
      lru_.erase(item->lru_pos);
      items_.Erase(key);
      Respond([cb = std::move(cb)]() { cb(true); });
    } else {
      Respond([cb = std::move(cb)]() { cb(false); });
    }
  });
}

void KvServer::Fail() {
  audit_.Check();
  failed_ = true;
  items_.Clear();
  lru_.clear();
  busy_until_ = sim_->now();
}

void KvServer::Recover() {
  audit_.Check();
  failed_ = false;
}

}  // namespace kv
