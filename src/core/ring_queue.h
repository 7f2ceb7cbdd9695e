// RingQueue: a FIFO of trivially copyable values in one power-of-two ring.
// The ring doubles when full and keeps its capacity when it drains, so a
// queue that has once held its peak allocates nothing more (a std::deque
// allocates and frees a node every few hundred bytes of traffic).
#ifndef PFS_CORE_RING_QUEUE_H_
#define PFS_CORE_RING_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace pfs {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>, "RingQueue holds plain values");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& front() const { return ring_[head_]; }

  void push_back(const T& value) {
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> grown(std::max<size_t>(8, 2 * ring_.size()));
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> ring_;  // empty, or a power-of-two size
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace pfs

#endif  // PFS_CORE_RING_QUEUE_H_
