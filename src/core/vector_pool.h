// VectorPool: vectors that callers lease for one operation and give back
// with their capacity. A path that needs per-call storage of varying size,
// and may run more than once at a time (two coroutines suspended in it),
// then allocates nothing once the pool holds as many vectors, as large, as
// its callers use at once. Single-threaded, like the shard-affine
// components that own one.
#ifndef PFS_CORE_VECTOR_POOL_H_
#define PFS_CORE_VECTOR_POOL_H_

#include <utility>
#include <vector>

namespace pfs {

template <typename T>
class VectorPool {
 public:
  // An empty vector for the lease's lifetime, returned to the pool when the
  // lease ends.
  class Lease {
   public:
    explicit Lease(VectorPool* pool) : pool_(pool) {
      if (!pool_->free_.empty()) {
        vec_ = std::move(pool_->free_.back());
        pool_->free_.pop_back();
      }
    }
    ~Lease() {
      vec_.clear();
      pool_->free_.push_back(std::move(vec_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    std::vector<T>& operator*() { return vec_; }
    std::vector<T>* operator->() { return &vec_; }

   private:
    VectorPool* pool_;
    std::vector<T> vec_;
  };

 private:
  std::vector<std::vector<T>> free_;
};

}  // namespace pfs

#endif  // PFS_CORE_VECTOR_POOL_H_
