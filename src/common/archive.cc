#include "common/archive.h"

#include <algorithm>
#include <fstream>

#include "common/fault.h"

namespace confcard {

ArchiveWriter::ArchiveWriter(uint32_t magic, uint32_t version) {
  WriteU32(magic);
  WriteU32(version);
}

void ArchiveWriter::Append(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const size_t old = bytes_.size();
  bytes_.resize(old + n);
  std::copy_n(p, n, bytes_.begin() + old);
}

void ArchiveWriter::WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
void ArchiveWriter::WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
void ArchiveWriter::WriteI32(int32_t v) { Append(&v, sizeof(v)); }
void ArchiveWriter::WriteDouble(double v) { Append(&v, sizeof(v)); }
void ArchiveWriter::WriteFloat(float v) { Append(&v, sizeof(v)); }

void ArchiveWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  Append(s.data(), s.size());
}

void ArchiveWriter::WriteDoubleVec(const std::vector<double>& v) {
  WriteU64(v.size());
  Append(v.data(), v.size() * sizeof(double));
}

void ArchiveWriter::WriteFloatVec(const std::vector<float>& v) {
  WriteFloats(v.data(), v.size());
}

void ArchiveWriter::WriteFloats(const float* data, size_t n) {
  WriteU64(n);
  Append(data, n * sizeof(float));
}

Status ArchiveWriter::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes_.data()),
            static_cast<std::streamsize>(bytes_.size()));
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

ArchiveReader::ArchiveReader(std::vector<uint8_t> bytes,
                             uint32_t expected_magic,
                             uint32_t expected_version)
    : bytes_(std::move(bytes)) {
  const uint32_t magic = ReadU32();
  const uint32_t version = ReadU32();
  if (!status_.ok()) return;
  if (magic != expected_magic) {
    Fail("magic mismatch (not a confcard archive of this type)");
  } else if (version != expected_version) {
    Fail("unsupported archive version " + std::to_string(version));
  }
}

Result<ArchiveReader> ArchiveReader::FromFile(const std::string& path,
                                              uint32_t expected_magic,
                                              uint32_t expected_version) {
  if (fault::Enabled()) {
    CONFCARD_RETURN_NOT_OK(fault::Check("io.archive", fault::KeyOf(path)));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ArchiveReader reader(std::move(bytes), expected_magic, expected_version);
  if (!reader.status().ok()) return reader.status();
  return reader;
}

bool ArchiveReader::Take(void* out, size_t n) {
  if (!status_.ok()) return false;
  // pos_ <= bytes_.size() always holds; compare against the remaining
  // byte count so an adversarial length can't overflow pos_ + n.
  if (n > bytes_.size() - pos_) {
    Fail("truncated archive");
    return false;
  }
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

void ArchiveReader::Fail(const std::string& what) {
  if (status_.ok()) status_ = Status::InvalidArgument(what);
}

uint32_t ArchiveReader::ReadU32() {
  uint32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint64_t ArchiveReader::ReadU64() {
  uint64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int32_t ArchiveReader::ReadI32() {
  int32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

double ArchiveReader::ReadDouble() {
  double v = 0;
  Take(&v, sizeof(v));
  return v;
}

float ArchiveReader::ReadFloat() {
  float v = 0;
  Take(&v, sizeof(v));
  return v;
}

std::string ArchiveReader::ReadString() {
  const uint64_t n = ReadU64();
  if (!status_.ok()) return "";
  if (n > bytes_.size() - pos_) {
    Fail("truncated string");
    return "";
  }
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

std::vector<double> ArchiveReader::ReadDoubleVec() {
  const uint64_t n = ReadU64();
  std::vector<double> v;
  if (!status_.ok()) return v;
  // Divide instead of multiplying: n * sizeof(double) can wrap for a
  // corrupt length, making the bound check pass and resize() throw.
  if (n > (bytes_.size() - pos_) / sizeof(double)) {
    Fail("truncated vector");
    return v;
  }
  v.resize(static_cast<size_t>(n));
  Take(v.data(), v.size() * sizeof(double));
  return v;
}

std::vector<float> ArchiveReader::ReadFloatVec() {
  const uint64_t n = ReadU64();
  std::vector<float> v;
  if (!status_.ok()) return v;
  if (n > (bytes_.size() - pos_) / sizeof(float)) {
    Fail("truncated vector");
    return v;
  }
  v.resize(static_cast<size_t>(n));
  Take(v.data(), v.size() * sizeof(float));
  return v;
}

void ArchiveReader::ReadFloatsInto(float* out, size_t n) {
  const uint64_t stored = ReadU64();
  if (!status_.ok()) return;
  if (stored != n) {
    Fail("float vector length mismatch");
    return;
  }
  if (n > (bytes_.size() - pos_) / sizeof(float)) {
    Fail("truncated vector");
    return;
  }
  Take(out, n * sizeof(float));
}

}  // namespace confcard
