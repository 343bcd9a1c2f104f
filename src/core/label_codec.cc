#include "src/core/label_codec.h"

#include "src/common/bit_codec.h"

namespace skl {

EncodedLabels EncodeLabels(const RunLabeling& labeling) {
  EncodedLabels out;
  const uint32_t n = labeling.num_vertices();
  const int q_bits = static_cast<int>(labeling.context_bits() / 3);
  const int o_bits = static_cast<int>(labeling.origin_bits());
  BitWriter writer;
  writer.WriteVarint(n);
  writer.WriteVarint(static_cast<uint64_t>(q_bits));
  writer.WriteVarint(static_cast<uint64_t>(o_bits));
  for (uint32_t v = 0; v < n; ++v) {
    const RunLabel& l = labeling.label(v);
    // Positions are 1-based and <= n_T^+ <= 2^q_bits; store them 0-based so
    // they fit exactly.
    writer.Write(l.q1 - 1, q_bits);
    writer.Write(l.q2 - 1, q_bits);
    writer.Write(l.q3 - 1, q_bits);
    writer.Write(l.origin, o_bits);
  }
  out.bits_per_label = static_cast<uint32_t>(3 * q_bits + o_bits);
  out.num_labels = n;
  out.bytes = writer.Finish();
  return out;
}

Result<std::vector<RunLabel>> DecodeLabels(const EncodedLabels& encoded) {
  return DecodeLabels(encoded.bytes);
}

Result<std::vector<RunLabel>> DecodeLabels(
    const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes);
  uint64_t n = 0, q_bits = 0, o_bits = 0;
  SKL_RETURN_NOT_OK(reader.ReadVarint(&n));
  SKL_RETURN_NOT_OK(reader.ReadVarint(&q_bits));
  SKL_RETURN_NOT_OK(reader.ReadVarint(&o_bits));
  if (q_bits == 0 || q_bits > 32 || o_bits == 0 || o_bits > 32) {
    return Status::ParseError("corrupt label header");
  }
  std::vector<RunLabel> labels(n);
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t q1, q2, q3, origin;
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q1));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q2));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q3));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(o_bits), &origin));
    labels[v] = RunLabel{static_cast<uint32_t>(q1 + 1),
                         static_cast<uint32_t>(q2 + 1),
                         static_cast<uint32_t>(q3 + 1),
                         static_cast<VertexId>(origin)};
  }
  return labels;
}

}  // namespace skl
