// InlineVector: a vector of trivially copyable elements whose first N live
// inline, so a container that stays within N never allocates. Past N the
// elements move to a heap vector, which keeps its capacity across clear().
// Copies are plain member-wise copies: nothing points into the object.
#ifndef PFS_CORE_INLINE_VECTOR_H_
#define PFS_CORE_INLINE_VECTOR_H_

#include <array>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace pfs {

template <typename T, size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>, "InlineVector holds plain values");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return spill_.empty() ? inline_.data() : spill_.data(); }
  const T* data() const { return spill_.empty() ? inline_.data() : spill_.data(); }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ < N) {
      inline_[size_++] = value;
      return;
    }
    if (spill_.empty()) {
      spill_.assign(inline_.begin(), inline_.end());
    }
    spill_.push_back(value);
    ++size_;
  }

  void pop_back() {
    --size_;
    if (!spill_.empty()) {
      spill_.pop_back();
    }
  }

  void clear() {
    size_ = 0;
    spill_.clear();
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> spill_;  // every element once size_ > N, else empty
  size_t size_ = 0;
};

}  // namespace pfs

#endif  // PFS_CORE_INLINE_VECTOR_H_
