#include "ibfs/bitwise_status_array.h"

#include "util/logging.h"

namespace ibfs {

BitwiseStatusArray::BitwiseStatusArray(int64_t vertex_count,
                                       int instance_count)
    : vertex_count_(vertex_count),
      instance_count_(instance_count),
      words_(static_cast<int>(CeilDiv(static_cast<uint64_t>(instance_count),
                                      64))) {
  IBFS_CHECK(vertex_count > 0);
  IBFS_CHECK(instance_count > 0);
  const int rem = instance_count_ % 64;
  last_word_mask_ = rem == 0 ? ~uint64_t{0} : LowMask(rem);
  data_.assign(static_cast<size_t>(vertex_count) * words_, 0);
}

bool BitwiseStatusArray::RowAllClear(graph::VertexId v) const {
  const uint64_t* row = data_.data() + RowOffset(v);
  for (int w = 0; w < words_; ++w) {
    if (row[w] != 0) return false;
  }
  return true;
}

void BitwiseStatusArray::CopyFrom(const BitwiseStatusArray& other) {
  IBFS_CHECK(other.vertex_count_ == vertex_count_);
  IBFS_CHECK(other.instance_count_ == instance_count_);
  data_ = other.data_;
}

}  // namespace ibfs
