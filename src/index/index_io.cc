#include "index/index_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sampling/bitlane.h"

namespace relmax {
namespace {

constexpr uint64_t kHashSeed = 0x52454c4d41585f49;  // "RELMAX_I"
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15;

/// splitmix64 finalizer: full-avalanche 64-bit mixing in a handful of ops.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9;
  x ^= x >> 27;
  x *= 0x94d049bb133111eb;
  x ^= x >> 31;
  return x;
}

size_t Align64(size_t x) { return (x + 63) & ~size_t{63}; }

/// ceil(log2 n), 0 for n <= 1 — must match the index's label sizing.
int LabelBitsFor(NodeId num_nodes) {
  int bits = 0;
  if (num_nodes > 1) {
    const NodeId max_label = num_nodes - 1;
    while ((max_label >> bits) != 0) ++bits;
  }
  return bits;
}

/// The section kinds in their required file order.
constexpr IndexSectionKind kSectionOrder[] = {
    IndexSectionKind::kBankRows, IndexSectionKind::kLabelPlanes,
    IndexSectionKind::kLabelCompaction};
constexpr size_t kNumSections = std::size(kSectionOrder);

/// Lane-padded words per stored bank row. Saved rows use the same stride
/// the in-memory BitMatrix allocates, which is what makes the mmap-ed
/// section directly adoptable (zero copy).
size_t StrideWords(size_t world_words) {
  return ((world_words + bitlane::kLaneWords - 1) / bitlane::kLaneWords) *
         bitlane::kLaneWords;
}

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status WriteAll(std::FILE* f, const void* data, size_t size,
                const std::string& path) {
  if (size != 0 && std::fwrite(data, 1, size, f) != size) {
    return Status::IoError(Errno("write", path));
  }
  return Status::Ok();
}

Status WritePad(std::FILE* f, size_t from, size_t to,
                const std::string& path) {
  static const unsigned char kZeros[64] = {};
  RELMAX_DCHECK(to >= from && to - from <= sizeof(kZeros));
  return WriteAll(f, kZeros, to - from, path);
}

/// Per-world compact-label-domain sizes, recovered from the bit-planes: the
/// index numbers components by first appearance in node order, so a world's
/// domain size is its maximum label + 1.
std::vector<uint32_t> CompactionTable(const ReliabilityIndex& index,
                                      NodeId num_nodes, int num_worlds,
                                      size_t world_words) {
  std::vector<uint32_t> max_label(num_worlds, 0);
  const std::span<const uint64_t> labels = index.label_words();
  const int bits = index.label_bits();
  for (NodeId v = 0; v < num_nodes; ++v) {
    const uint64_t* const planes =
        labels.data() + static_cast<size_t>(v) * bits * world_words;
    for (size_t w = 0; w < world_words; ++w) {
      const int base = static_cast<int>(w * 64);
      const int limit = std::min(64, num_worlds - base);
      for (int bit = 0; bit < limit; ++bit) {
        uint32_t label = 0;
        for (int b = 0; b < bits; ++b) {
          label |= static_cast<uint32_t>(
                       (planes[static_cast<size_t>(b) * world_words + w] >>
                        bit) &
                       1)
                   << b;
        }
        if (label > max_label[base + bit]) max_label[base + bit] = label;
      }
    }
  }
  // Domain size = max label + 1 (a world always has at least one component
  // when the graph has nodes).
  for (uint32_t& m : max_label) m += (num_nodes > 0) ? 1 : 0;
  return max_label;
}

}  // namespace

uint64_t HashBytes(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = Mix64(kHashSeed ^ (kGolden * (size + 1)));
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = Mix64(h ^ w) + kGolden;
  }
  if (i < size) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, size - i);
    h = Mix64(h ^ w) + kGolden;
  }
  return Mix64(h);
}

uint64_t GraphContentDigest(const UncertainGraph& g) {
  uint64_t h = Mix64(kHashSeed ^ 0x4449474553543031);  // "DIGEST01"
  const auto absorb = [&h](uint64_t w) { h = Mix64(h ^ w) + kGolden; };
  absorb(g.directed() ? 1 : 0);
  absorb(g.num_nodes());
  absorb(g.num_edges());
  static_assert(sizeof(double) == sizeof(uint64_t));
  for (const Edge& e : g.EdgesById()) {
    absorb((static_cast<uint64_t>(e.src) << 32) | e.dst);
    uint64_t prob_bits;
    std::memcpy(&prob_bits, &e.prob, sizeof(prob_bits));
    absorb(prob_bits);
  }
  return Mix64(h);
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no index file at " + path);
    }
    return Status::IoError(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError(Errno("stat", path));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::IoError(path + ": truncated: file is empty");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError(Errno("mmap", path));
  }
  MappedFile mapped;
  mapped.addr_ = addr;
  mapped.size_ = size;
  return mapped;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

StatusOr<size_t> SaveIndex(const WorldBank& bank,
                           const ReliabilityIndex& index,
                           const WorldBank::Options& world_options,
                           uint64_t generation, const std::string& path) {
  const UncertainGraph& g = bank.universe();
  const int num_worlds = bank.num_worlds();
  if (world_options.num_samples != num_worlds) {
    return Status::InvalidArgument(
        "SaveIndex: world_options.num_samples does not match the bank");
  }
  if (index.num_worlds() != num_worlds) {
    return Status::InvalidArgument(
        "SaveIndex: index and bank disagree on the number of worlds");
  }
  if (bank.num_edges() != g.num_edges()) {
    return Status::InvalidArgument(
        "SaveIndex: bank is stale (graph has edges the bank never sampled)");
  }
  const NodeId num_nodes = g.num_nodes();
  const size_t world_words = bank.world_words();
  const size_t stride_words = StrideWords(world_words);
  const int label_bits = index.label_bits();

  // Assemble every payload section in memory (this doubles the bank, the
  // largest section, not the file).
  struct Section {
    IndexSectionKind kind;
    std::vector<uint64_t> words;  // u64-backed so bank rows stay aligned
    size_t bytes = 0;
  };
  std::vector<Section> sections;
  {
    Section s;
    s.kind = IndexSectionKind::kBankRows;
    const size_t rows = bank.num_edges();
    s.words.assign(rows * stride_words, 0);
    for (size_t r = 0; r < rows; ++r) {
      const std::span<const uint64_t> up =
          bank.EdgeUpWorlds(static_cast<EdgeId>(r));
      std::memcpy(s.words.data() + r * stride_words, up.data(),
                  world_words * sizeof(uint64_t));
    }
    s.bytes = s.words.size() * sizeof(uint64_t);
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.kind = IndexSectionKind::kLabelPlanes;
    const std::span<const uint64_t> labels = index.label_words();
    s.words.assign(labels.begin(), labels.end());
    s.bytes = s.words.size() * sizeof(uint64_t);
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.kind = IndexSectionKind::kLabelCompaction;
    const std::vector<uint32_t> counts =
        CompactionTable(index, num_nodes, num_worlds, world_words);
    s.bytes = counts.size() * sizeof(uint32_t);
    s.words.assign((s.bytes + 7) / 8, 0);
    std::memcpy(s.words.data(), counts.data(), s.bytes);
    sections.push_back(std::move(s));
  }
  RELMAX_DCHECK(sections.size() == kNumSections);

  IndexFileHeader header = {};
  header.magic = kIndexMagic;
  header.format_version = kIndexFormatVersion;
  header.endian_tag = kIndexEndianTag;
  header.graph_digest = GraphContentDigest(g);
  header.generation = generation;
  header.seed = world_options.seed;
  header.num_edges = g.num_edges();
  header.num_nodes = num_nodes;
  header.num_worlds = static_cast<uint32_t>(num_worlds);
  header.world_words = static_cast<uint32_t>(world_words);
  header.lane_words = static_cast<uint32_t>(bitlane::kLaneWords);
  header.label_bits = static_cast<uint32_t>(label_bits);
  header.flags = g.directed() ? kIndexFlagDirected : 0;
  header.num_sections = static_cast<uint32_t>(sections.size());

  // Lay the sections out 64-byte aligned and checksum each payload.
  std::vector<IndexSectionEntry> table(sections.size());
  std::vector<uint64_t> section_checksums(sections.size());
  size_t cursor =
      Align64(sizeof(IndexFileHeader) +
              sections.size() * sizeof(IndexSectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i].kind = static_cast<uint64_t>(sections[i].kind);
    table[i].offset = cursor;
    table[i].length = sections[i].bytes;
    section_checksums[i] =
        HashBytes(sections[i].words.data(), sections[i].bytes);
    cursor = Align64(cursor + sections[i].bytes);
  }
  const size_t footer_offset = cursor;
  const uint64_t footer_magic = kIndexFooterMagic;
  const uint64_t table_checksum =
      HashBytes(table.data(), table.size() * sizeof(IndexSectionEntry));
  const size_t total_bytes = footer_offset + 2 * sizeof(uint64_t) +
                             section_checksums.size() * sizeof(uint64_t);

  // Write-temp + rename: readers of `path` see the old complete file until
  // the new one is fully on disk, never a torn mix.
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(Errno("open", tmp_path));
  }
  const auto fail = [&](Status status) -> StatusOr<size_t> {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    return status;
  };
  Status st = WriteAll(f, &header, sizeof(header), tmp_path);
  if (st.ok()) {
    st = WriteAll(f, table.data(), table.size() * sizeof(IndexSectionEntry),
                  tmp_path);
  }
  size_t written = sizeof(header) + table.size() * sizeof(IndexSectionEntry);
  for (size_t i = 0; st.ok() && i < sections.size(); ++i) {
    st = WritePad(f, written, table[i].offset, tmp_path);
    if (!st.ok()) break;
    st = WriteAll(f, sections[i].words.data(), sections[i].bytes, tmp_path);
    written = table[i].offset + sections[i].bytes;
  }
  if (st.ok()) st = WritePad(f, written, footer_offset, tmp_path);
  if (st.ok()) st = WriteAll(f, &footer_magic, sizeof(uint64_t), tmp_path);
  if (st.ok()) st = WriteAll(f, &table_checksum, sizeof(uint64_t), tmp_path);
  if (st.ok()) {
    st = WriteAll(f, section_checksums.data(),
                  section_checksums.size() * sizeof(uint64_t), tmp_path);
  }
  if (!st.ok()) return fail(st);
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    return fail(Status::IoError(Errno("flush", tmp_path)));
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError(Errno("close", tmp_path));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status = Status::IoError(Errno("rename", path));
    std::remove(tmp_path.c_str());
    return status;
  }
  return total_bytes;
}

StatusOr<IndexFileInfo> InspectIndexFile(const std::string& path) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const MappedFile& file = *mapped;
  if (file.size() < sizeof(IndexFileHeader)) {
    return Status::IoError(path + ": truncated: smaller than the header");
  }
  IndexFileInfo info;
  std::memcpy(&info.header, file.data(), sizeof(IndexFileHeader));
  if (info.header.magic != kIndexMagic) {
    return Status::FailedPrecondition(path +
                                      ": not a relmax index file (bad magic)");
  }
  if (info.header.format_version != kIndexFormatVersion) {
    return Status::FailedPrecondition(
        path + ": unsupported index format version " +
        std::to_string(info.header.format_version));
  }
  if (info.header.endian_tag != kIndexEndianTag) {
    return Status::FailedPrecondition(
        path + ": index file was written on a different-endian machine");
  }
  const size_t table_end =
      sizeof(IndexFileHeader) +
      static_cast<size_t>(info.header.num_sections) *
          sizeof(IndexSectionEntry);
  if (info.header.num_sections > kNumSections || file.size() < table_end) {
    return Status::IoError(path + ": truncated: section table out of bounds");
  }
  info.sections.resize(info.header.num_sections);
  std::memcpy(info.sections.data(), file.data() + sizeof(IndexFileHeader),
              info.sections.size() * sizeof(IndexSectionEntry));
  info.file_bytes = file.size();
  return info;
}

StatusOr<LoadedIndex> LoadIndex(
    const std::string& path, const UncertainGraph& g,
    const WorldBank::Options& world_options,
    const ReliabilityIndex::Options& index_options) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  LoadedIndex out;
  out.mapping = std::move(mapped).value();
  const unsigned char* const base = out.mapping.data();
  const size_t file_size = out.mapping.size();

  if (file_size < sizeof(IndexFileHeader)) {
    return Status::IoError(path + ": truncated: smaller than the header");
  }
  IndexFileHeader h;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != kIndexMagic) {
    return Status::FailedPrecondition(path +
                                      ": not a relmax index file (bad magic)");
  }
  if (h.format_version != kIndexFormatVersion) {
    return Status::FailedPrecondition(path +
                                      ": unsupported index format version " +
                                      std::to_string(h.format_version));
  }
  if (h.endian_tag != kIndexEndianTag) {
    return Status::FailedPrecondition(
        path + ": index file was written on a different-endian machine");
  }

  // Key check: the file must have been built for exactly this (graph,
  // options) tuple, or its bits answer a different question.
  const uint64_t digest = GraphContentDigest(g);
  if (h.graph_digest != digest) {
    return Status::FailedPrecondition(
        path + ": index was built for a different graph (content digest " +
        std::to_string(h.graph_digest) + ", expected " +
        std::to_string(digest) + ")");
  }
  const bool directed = (h.flags & kIndexFlagDirected) != 0;
  if (directed != g.directed() || h.num_nodes != g.num_nodes() ||
      h.num_edges != g.num_edges()) {
    return Status::FailedPrecondition(
        path + ": index was built for a different graph shape");
  }
  if (h.num_worlds != static_cast<uint32_t>(world_options.num_samples)) {
    return Status::FailedPrecondition(
        path + ": index has Z=" + std::to_string(h.num_worlds) +
        " worlds, expected Z=" + std::to_string(world_options.num_samples));
  }
  if (h.seed != world_options.seed) {
    return Status::FailedPrecondition(
        path + ": index was drawn with a different seed");
  }
  if (h.lane_words != static_cast<uint32_t>(bitlane::kLaneWords)) {
    return Status::FailedPrecondition(
        path + ": index uses a different lane layout (" +
        std::to_string(h.lane_words) + " words per lane block, expected " +
        std::to_string(bitlane::kLaneWords) + ")");
  }

  // Internal-consistency checks: these fields are pure functions of the key
  // fields above, so a disagreement means a corrupt or hand-edited header.
  const NodeId num_nodes = g.num_nodes();
  const int num_worlds = world_options.num_samples;
  const size_t world_words = (static_cast<size_t>(num_worlds) + 63) / 64;
  const size_t stride_words = StrideWords(world_words);
  if (h.world_words != world_words ||
      h.label_bits != static_cast<uint32_t>(LabelBitsFor(num_nodes)) ||
      (h.flags & ~kIndexFlagDirected) != 0 || h.num_sections != kNumSections) {
    return Status::InvalidArgument(
        path + ": inconsistent header (corrupt or hand-edited)");
  }
  const int label_bits = static_cast<int>(h.label_bits);

  // Section table: exact expected kind sequence, 64-byte aligned offsets,
  // and a byte-exact total file size (anything shorter is truncation).
  const size_t table_offset = sizeof(IndexFileHeader);
  const size_t table_bytes = kNumSections * sizeof(IndexSectionEntry);
  if (file_size < table_offset + table_bytes) {
    return Status::IoError(path + ": truncated inside the section table");
  }
  std::vector<IndexSectionEntry> table(kNumSections);
  std::memcpy(table.data(), base + table_offset, table_bytes);
  size_t cursor = Align64(table_offset + table_bytes);
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].kind != static_cast<uint64_t>(kSectionOrder[i])) {
      return Status::InvalidArgument(
          path + ": unexpected section kind " + std::to_string(table[i].kind) +
          " at table slot " + std::to_string(i));
    }
    if (table[i].offset % 64 != 0) {
      return Status::InvalidArgument(
          path + ": section " + std::to_string(i) +
          " violates 64-byte alignment (offset " +
          std::to_string(table[i].offset) + ")");
    }
    if (table[i].offset != cursor || table[i].length > file_size ||
        table[i].offset + table[i].length > file_size) {
      return Status::IoError(path + ": truncated at section " +
                             std::to_string(i) + " (offset " +
                             std::to_string(table[i].offset) + " + " +
                             std::to_string(table[i].length) + " bytes)");
    }
    cursor = Align64(table[i].offset + table[i].length);
  }
  const size_t footer_offset = cursor;
  const size_t footer_bytes = (2 + kNumSections) * sizeof(uint64_t);
  if (file_size != footer_offset + footer_bytes) {
    return Status::IoError(
        path + ": truncated: " + std::to_string(file_size) +
        " bytes, layout requires " +
        std::to_string(footer_offset + footer_bytes));
  }

  // Footer checksums, before any payload byte is interpreted.
  uint64_t footer_magic;
  uint64_t table_checksum;
  std::memcpy(&footer_magic, base + footer_offset, sizeof(uint64_t));
  std::memcpy(&table_checksum, base + footer_offset + sizeof(uint64_t),
              sizeof(uint64_t));
  if (footer_magic != kIndexFooterMagic) {
    return Status::IoError(path + ": checksum footer missing or corrupt");
  }
  if (table_checksum != HashBytes(base + table_offset, table_bytes)) {
    return Status::IoError(path + ": section table checksum mismatch");
  }
  for (size_t i = 0; i < table.size(); ++i) {
    uint64_t want;
    std::memcpy(&want,
                base + footer_offset + (2 + i) * sizeof(uint64_t),
                sizeof(uint64_t));
    if (HashBytes(base + table[i].offset, table[i].length) != want) {
      return Status::IoError(path + ": checksum mismatch in section " +
                             std::to_string(i) + " (kind " +
                             std::to_string(table[i].kind) + ")");
    }
  }

  // Payload shapes.
  const IndexSectionEntry& bank_entry = table[0];
  const size_t num_edges = g.num_edges();
  const size_t row_bytes = stride_words * sizeof(uint64_t);
  if (bank_entry.length != num_edges * row_bytes) {
    return Status::InvalidArgument(
        path + ": bank rows hold " + std::to_string(bank_entry.length) +
        " bytes, expected " + std::to_string(num_edges * row_bytes));
  }
  const IndexSectionEntry& labels_entry = table[1];
  const size_t label_words_expected = static_cast<size_t>(num_nodes) *
                                      label_bits * world_words;
  if (labels_entry.length != label_words_expected * sizeof(uint64_t)) {
    return Status::InvalidArgument(
        path + ": label planes hold " + std::to_string(labels_entry.length) +
        " bytes, expected " +
        std::to_string(label_words_expected * sizeof(uint64_t)));
  }
  const IndexSectionEntry& compaction_entry = table[2];
  if (compaction_entry.length !=
      static_cast<size_t>(num_worlds) * sizeof(uint32_t)) {
    return Status::InvalidArgument(path +
                                   ": label-compaction table has " +
                                   std::to_string(compaction_entry.length) +
                                   " bytes, expected 4 per world");
  }
  for (int w = 0; w < num_worlds; ++w) {
    uint32_t count;
    std::memcpy(&count,
                base + compaction_entry.offset +
                    static_cast<size_t>(w) * sizeof(uint32_t),
                sizeof(uint32_t));
    if (count > num_nodes || (num_nodes > 0 && count == 0)) {
      return Status::InvalidArgument(
          path + ": label-compaction table claims " + std::to_string(count) +
          " components in world " + std::to_string(w) + " of a " +
          std::to_string(num_nodes) + "-node graph");
    }
  }

  // Bank rows must keep the BitMatrix invariant the kernels rely on: bits
  // past num_worlds (the last logical word's tail and every pad word) are
  // zero. A corrupted-but-rewritten-checksum file cannot smuggle them in.
  const uint64_t tail_mask = (num_worlds & 63)
                                 ? (uint64_t{1} << (num_worlds & 63)) - 1
                                 : ~uint64_t{0};
  const uint64_t* const bank_rows =
      reinterpret_cast<const uint64_t*>(base + bank_entry.offset);
  for (size_t r = 0; r < num_edges; ++r) {
    const uint64_t* const row = bank_rows + r * stride_words;
    uint64_t bad = row[world_words - 1] & ~tail_mask;
    for (size_t w = world_words; w < stride_words; ++w) bad |= row[w];
    if (bad != 0) {
      return Status::InvalidArgument(path + ": bank row " + std::to_string(r) +
                                     " has nonzero tail/pad bits");
    }
  }

  // Everything checks out — adopt the mapped bank rows zero-copy. The
  // const_cast is confined to here: the mapping is PROT_READ and the bank
  // never writes its up-matrix after construction, so any accidental write
  // faults loudly instead of corrupting the file.
  uint64_t* const rows = const_cast<uint64_t*>(bank_rows);
  out.bank = std::make_unique<WorldBank>(
      g, num_worlds,
      bitlane::BitMatrix::External(rows, num_edges, world_words));

  if (labels_entry.length > index_options.max_label_bytes) {
    return Status::FailedPrecondition(
        path + ": label planes (" + std::to_string(labels_entry.length) +
        " bytes) exceed max_label_bytes (" +
        std::to_string(index_options.max_label_bytes) + ")");
  }
  std::vector<uint64_t> labels(label_words_expected);
  std::memcpy(labels.data(), base + labels_entry.offset, labels_entry.length);
  out.index = ReliabilityIndex::FromSavedLabels(*out.bank, index_options,
                                                std::move(labels));
  out.generation = h.generation;
  out.file_bytes = file_size;
  return out;
}

}  // namespace relmax
