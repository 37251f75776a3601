// FIFO in a chain of fixed-size blocks.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace xgbe::sim {

/// FIFO for work that waits behind a single pending event: a Link
/// direction's frames on the wire, a Resource's queued jobs. Only the head
/// has an event; each firing pops it and schedules the next.
///
/// Elements live in a chain of fixed-size blocks, so memory follows the
/// queue length (no doubling slack, no copy on growth), an empty FIFO owns
/// nothing, and the last drained block is kept for reuse, so a steady state
/// allocates nothing. Queued elements never move: a reference to front()
/// stays valid across push_back(). pop_front() does not destroy the slot's
/// value (it is overwritten on reuse), so move out anything that must be
/// released at pop time first.
template <typename T>
class BlockFifo {
 public:
  BlockFifo() = default;
  BlockFifo(const BlockFifo&) = delete;
  BlockFifo& operator=(const BlockFifo&) = delete;
  ~BlockFifo() {
    // Unlink block by block: letting head_ destroy the chain would recurse
    // once per block.
    while (head_) head_ = std::move(head_->next);
  }

  bool empty() const { return size_ == 0; }
  T& front() { return head_->items[head_pos_]; }
  const T& back() const { return tail_->items[tail_pos_ - 1]; }

  template <typename U>
  void push_back(U&& item) {
    if (tail_ == nullptr || tail_pos_ == kBlockItems) {
      std::unique_ptr<Block> block =
          spare_ ? std::move(spare_) : std::make_unique<Block>();
      Block* raw = block.get();
      (tail_ == nullptr ? head_ : tail_->next) = std::move(block);
      tail_ = raw;
      tail_pos_ = 0;
    }
    tail_->items[tail_pos_++] = std::forward<U>(item);
    ++size_;
  }

  void pop_front() {
    --size_;
    if (++head_pos_ == kBlockItems) {
      std::unique_ptr<Block> next = std::move(head_->next);
      spare_ = std::move(head_);
      head_ = std::move(next);
      if (head_ == nullptr) tail_ = nullptr;
      head_pos_ = 0;
    }
  }

 private:
  static constexpr std::size_t kBlockItems = 16;
  struct Block {
    T items[kBlockItems];
    std::unique_ptr<Block> next;
  };
  std::unique_ptr<Block> head_;  // owns the chain
  Block* tail_ = nullptr;
  std::unique_ptr<Block> spare_;
  std::size_t head_pos_ = 0;  // the front item's index in head_
  std::size_t tail_pos_ = 0;  // one past the back item's index in tail_
  std::size_t size_ = 0;
};

}  // namespace xgbe::sim
