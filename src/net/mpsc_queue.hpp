// Lock-free multi-producer single-consumer handoff queue (DESIGN.md §9).
//
// The PredictionServer's reactor uses one of these as its inbox:
// thread-pool workers finishing a predict_batch push completion nodes from
// any thread, and the reactor drains the queue on an eventfd wake — always
// on its own thread, so everything a node carries is handed over with no
// further synchronization.
//
// The structure is an intrusive Treiber stack with a drain-all consumer:
//
//   push    one atomic exchange on the head (wait-free for producers)
//   drain   one atomic exchange to nullptr, then a list reversal
//
// The reversal converts the stack's LIFO chain into FIFO order of the
// *push linearization points*, so a single producer's nodes are always
// consumed in the order it pushed them — which is what keeps per-connection
// response ordering intact when a connection pipelines requests.
//
// Ownership: nodes are heap-allocated by producers and freed by the
// consumer after processing. The queue itself never allocates. take_all()
// on destruction-bound shutdown paths lets the owner reclaim stragglers.
#pragma once

#include <atomic>

namespace fgcs::net {

/// T must expose an intrusive `T* next` member. Producers allocate, the
/// consumer frees.
template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Thread-safe, wait-free. Returns true when the queue was empty — the
  /// producer that tips empty→non-empty is the one that must wake the
  /// consumer (callers still waking unconditionally stay correct, just
  /// noisier).
  bool push(T* node) {
    T* head = head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!head_.compare_exchange_weak(head, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    return head == nullptr;
  }

  /// Consumer only: detaches everything pushed so far and returns it in
  /// FIFO push order (oldest first), linked through `next`; nullptr when
  /// empty. The caller owns (and must free) the returned nodes.
  T* take_all() {
    T* chain = head_.exchange(nullptr, std::memory_order_acquire);
    T* fifo = nullptr;
    while (chain != nullptr) {
      T* node = chain;
      chain = chain->next;
      node->next = fifo;
      fifo = node;
    }
    return fifo;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<T*> head_{nullptr};
};

}  // namespace fgcs::net
