// Little-endian byte (de)serialization for on-disk structures.
//
// Every persistent structure in layout/ (superblock, checkpoint, inode,
// directory entry, segment summary) encodes itself through these so that PFS
// images are portable across hosts. Decoding is fully bounds-checked: a short
// or corrupt buffer produces ErrorCode::kCorrupt, never UB.
#ifndef PFS_CORE_SERIALIZER_H_
#define PFS_CORE_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/status.h"

namespace pfs {

// Appends fixed-width little-endian fields to a growing buffer.
class Serializer {
 public:
  explicit Serializer(std::vector<std::byte>* out) : out_(out) {}

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  // Length-prefixed (u16) byte string.
  void PutString(std::string_view s);

  size_t size() const { return out_->size(); }

 private:
  void Append(const void* data, size_t n);

  std::vector<std::byte>* out_;
};

// Consumes fields from a fixed buffer; all reads are bounds-checked.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> in) : in_(in) {}

  Result<uint8_t> TakeU8();
  Result<uint16_t> TakeU16();
  Result<uint32_t> TakeU32();
  Result<uint64_t> TakeU64();
  Result<int64_t> TakeI64();
  Result<std::string> TakeString();
  Status TakeBytes(std::span<std::byte> out);

  // Skips n bytes (e.g. reserved fields).
  Status Skip(size_t n);

  size_t remaining() const { return in_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  Status Need(size_t n) const;

  std::span<const std::byte> in_;
  size_t pos_ = 0;
};

}  // namespace pfs

#endif  // PFS_CORE_SERIALIZER_H_
