#include "storage/column_batch.h"

#include <utility>

namespace ariel {

Value ColumnBatch::ValueAt(size_t c, size_t row) const {
  const Column& col = cols_[c];
  if (!col.IsValid(row)) return Value::Null();
  switch (col.type) {
    case DataType::kInt:
      return Value::Int(col.ints[row]);
    case DataType::kFloat:
      return Value::Float(col.floats[row]);
    case DataType::kBool:
      return Value::Bool(col.bools[row] != 0);
    case DataType::kString:
      return Value::String(std::string(StringAt(c, row)));
    default:
      return Value::Null();
  }
}

Tuple ColumnBatch::TupleAt(size_t row) const {
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    values.push_back(ValueAt(c, row));
  }
  return Tuple(std::move(values));
}

size_t ColumnBatch::FootprintBytes() const {
  size_t bytes = sizeof(ColumnBatch) + tids_.capacity() * sizeof(TupleId) +
                 cols_.capacity() * sizeof(Column) + arena_.capacity();
  for (const Column& col : cols_) {
    bytes += col.valid.capacity() * sizeof(uint64_t) +
             col.ints.capacity() * sizeof(int64_t) +
             col.floats.capacity() * sizeof(double) + col.bools.capacity() +
             (col.str_off.capacity() + col.str_len.capacity()) *
                 sizeof(uint32_t);
  }
  return bytes;
}

void ColumnBatch::CorruptForTesting() {
  if (cols_.empty() || num_rows() == 0) return;
  cols_[0].valid[0] ^= 1;
}

ColumnBatchBuilder::ColumnBatchBuilder(const Schema& schema,
                                       size_t reserve_rows) {
  batch_.cols_.resize(schema.num_attributes());
  batch_.tids_.reserve(reserve_rows);
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    ColumnBatch::Column& col = batch_.cols_[c];
    col.type = schema.attribute(c).type;
    switch (col.type) {
      case DataType::kInt:
        col.ints.reserve(reserve_rows);
        break;
      case DataType::kFloat:
        col.floats.reserve(reserve_rows);
        break;
      case DataType::kBool:
        col.bools.reserve(reserve_rows);
        break;
      case DataType::kString:
        col.str_off.reserve(reserve_rows);
        col.str_len.reserve(reserve_rows);
        break;
      default:
        break;
    }
  }
}

void ColumnBatchBuilder::Append(TupleId tid, const Tuple& tuple) {
  const size_t row = batch_.tids_.size();
  batch_.tids_.push_back(tid);
  for (size_t c = 0; c < batch_.cols_.size(); ++c) {
    ColumnBatch::Column& col = batch_.cols_[c];
    const Value& v = tuple.at(c);
    if ((row & 63) == 0) col.valid.push_back(0);
    if (!v.is_null()) col.valid[row >> 6] |= uint64_t{1} << (row & 63);
    switch (col.type) {
      case DataType::kInt:
        col.ints.push_back(v.is_null() ? 0 : v.int_value());
        break;
      case DataType::kFloat:
        col.floats.push_back(v.is_null() ? 0.0 : v.float_value());
        break;
      case DataType::kBool:
        col.bools.push_back(v.is_null() ? 0 : (v.bool_value() ? 1 : 0));
        break;
      case DataType::kString: {
        if (v.is_null()) {
          col.str_off.push_back(0);
          col.str_len.push_back(0);
        } else {
          const std::string& s = v.string_value();
          col.str_off.push_back(static_cast<uint32_t>(batch_.arena_.size()));
          col.str_len.push_back(static_cast<uint32_t>(s.size()));
          batch_.arena_.append(s);
        }
        break;
      }
      default:
        break;
    }
  }
}

std::shared_ptr<const ColumnBatch> ColumnBatchBuilder::Build(
    uint64_t source_version) {
  batch_.source_version_ = source_version;
  auto out = std::make_shared<ColumnBatch>(std::move(batch_));
  batch_ = ColumnBatch();
  return out;
}

}  // namespace ariel
