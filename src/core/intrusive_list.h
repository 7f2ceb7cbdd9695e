// Intrusive doubly-linked list.
//
// The block cache keeps every cache block on exactly one of its LRU lists
// (free / clean / dirty) and moves blocks between lists on every access, so
// membership changes must be O(1) with zero allocation. This was one of the
// paper's §5.2 lessons: naive list maintenance dominated simulator run time.
// bench/ablation_lru_maintenance measures the difference. A cached block
// also sits on a second list, through a second node: its file's, so unlink,
// truncate and whole-file flush visit that file's blocks, not the cache's.
//
// Usage:
//   struct Block { IntrusiveListNode node; ... };
//   IntrusiveList<Block, &Block::node> lru;
//   lru.PushBack(*b); lru.Remove(*b); Block* victim = lru.Front();
#ifndef PFS_CORE_INTRUSIVE_LIST_H_
#define PFS_CORE_INTRUSIVE_LIST_H_

#include <cstddef>

#include "core/check.h"

namespace pfs {

struct IntrusiveListNode {
  IntrusiveListNode* prev = nullptr;
  IntrusiveListNode* next = nullptr;
  void* owner = nullptr;  // the containing object; set on first insert

  bool linked() const { return prev != nullptr; }
};

template <typename T, IntrusiveListNode T::* NodeMember>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }
  size_t size() const { return size_; }

  void PushBack(T& item) { InsertBefore(&head_, item); }
  void PushFront(T& item) {
    IntrusiveListNode* first = head_.next;
    IntrusiveListNode* n = Node(item);
    PFS_CHECK_MSG(!n->linked(), "Insert of already-linked node");
    n->owner = &item;
    n->prev = first->prev;
    n->next = first;
    first->prev->next = n;
    first->prev = n;
    ++size_;
  }

  // Removes `item`; it must be on this list.
  void Remove(T& item) {
    IntrusiveListNode* n = Node(item);
    PFS_CHECK_MSG(n->linked(), "Remove of unlinked node");
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->prev = nullptr;
    n->next = nullptr;
    --size_;
  }

  // Moves `item` (already on this list) to the back; the MRU operation.
  void MoveToBack(T& item) {
    Remove(item);
    PushBack(item);
  }

  T* Front() { return empty() ? nullptr : FromNode(head_.next); }
  T* Back() { return empty() ? nullptr : FromNode(head_.prev); }

  T* PopFront() {
    T* item = Front();
    if (item != nullptr) {
      Remove(*item);
    }
    return item;
  }

  // Forward iteration, front (LRU) to back (MRU). Do not remove the element
  // the iterator currently points at; collect victims first.
  class Iterator {
   public:
    explicit Iterator(IntrusiveListNode* at) : at_(at) {}
    T& operator*() const { return *FromNode(at_); }
    T* operator->() const { return FromNode(at_); }
    Iterator& operator++() {
      at_ = at_->next;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return at_ != other.at_; }

   private:
    IntrusiveListNode* at_;
  };

  Iterator begin() { return Iterator(head_.next); }
  Iterator end() { return Iterator(&head_); }

 private:
  static IntrusiveListNode* Node(T& item) { return &(item.*NodeMember); }
  static T* FromNode(IntrusiveListNode* n) { return static_cast<T*>(n->owner); }

  void InsertBefore(IntrusiveListNode* pos, T& item) {
    IntrusiveListNode* n = Node(item);
    PFS_CHECK_MSG(!n->linked(), "Insert of already-linked node");
    n->owner = &item;
    n->prev = pos->prev;
    n->next = pos;
    pos->prev->next = n;
    pos->prev = n;
    ++size_;
  }

  IntrusiveListNode head_;  // sentinel
  size_t size_ = 0;
};

}  // namespace pfs

#endif  // PFS_CORE_INTRUSIVE_LIST_H_
