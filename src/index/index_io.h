#ifndef RELMAX_INDEX_INDEX_IO_H_
#define RELMAX_INDEX_INDEX_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "index/reliability_index.h"
#include "sampling/world_bank.h"

namespace relmax {

/// Persistence for the offline reliability index: one mmap-able flat file
/// holding everything a process needs to answer queries without resampling
/// or relabeling — the bank's edge×world bit rows, the index's label
/// bit-planes, and the per-world label-compaction tables.
///
/// File layout (all integers little-endian, every payload section 64-byte
/// aligned so loaded bank rows drop straight into the lane-block kernels):
///
///     ┌────────────────────┐ offset 0
///     │ IndexFileHeader    │ fixed 88 bytes, keyed on (graph digest,
///     │                    │ directedness, Z, seed, lane layout)
///     ├────────────────────┤
///     │ SectionEntry table │ 3 × 24 bytes
///     ├────────────────────┤ pad to 64
///     │ kBankRows          │ every edge's world row, lane-stride padded
///     ├────────────────────┤ pad to 64
///     │ kLabelPlanes       │ the index's raw label words
///     ├────────────────────┤ pad to 64
///     │ kLabelCompaction   │ per-world compact-label-domain sizes (u32 × Z)
///     ├────────────────────┤ pad to 64
///     │ footer             │ magic, table checksum, per-section checksums
///     └────────────────────┘
///
/// Saving always writes `path + ".tmp"` and then rename()s over `path`
/// (atomic on POSIX), with the header's generation counter bumped by the
/// caller on each republish — readers either see the old complete file or
/// the new complete file, never a torn one.
///
/// Loading mmaps the file read-only and validates strictly before any
/// payload byte is interpreted: magic / version / endianness, the header
/// key against the caller's (graph, WorldBank::Options), exact file size
/// against the declared layout (truncation), section alignment, the footer
/// checksums, and payload invariants (component counts, zero tail/pad
/// bits). A file of an older format version fails the version check. Every failure is a typed Status — never UB — so callers can fall
/// back loudly to a rebuild, mirroring the bank-fallback protocol.

/// On-disk header. Plain-old-data on purpose: the format IS this struct's
/// bytes (packed naturally — every field is aligned to its size), so tests
/// and tooling can corrupt or inspect specific fields by offset.
struct IndexFileHeader {
  uint64_t magic;           ///< kIndexMagic
  uint32_t format_version;  ///< kIndexFormatVersion
  uint32_t endian_tag;      ///< kIndexEndianTag as written by the saver
  uint64_t graph_digest;    ///< GraphContentDigest of the universe graph
  uint64_t generation;      ///< bumped on every atomic republish
  uint64_t seed;            ///< WorldBank::Options::seed of the draw stream
  uint64_t num_edges;
  uint32_t num_nodes;
  uint32_t num_worlds;      ///< Z
  uint32_t world_words;     ///< ceil(Z / 64)
  uint32_t lane_words;      ///< bitlane::kLaneWords at save time (layout key)
  uint32_t label_bits;      ///< ceil(log2 num_nodes)
  uint32_t flags;           ///< kIndexFlagDirected
  uint32_t num_sections;
  uint32_t reserved0;
  uint64_t reserved1;
};
static_assert(sizeof(IndexFileHeader) == 88, "on-disk header layout");

inline constexpr uint64_t kIndexMagic = 0x3158444958494d52;   // "RMIXIDX1"
inline constexpr uint64_t kIndexFooterMagic =
    0x31444e4558494d52;                                       // "RMIXEND1"
/// Files of any other version (1 had per-shard bank sections) fail the
/// version check with kFailedPrecondition; the engine then rebuilds.
inline constexpr uint32_t kIndexFormatVersion = 2;
inline constexpr uint32_t kIndexEndianTag = 0x01020304;
inline constexpr uint32_t kIndexFlagDirected = 1u << 0;

/// Payload section kinds, in their required file order.
enum class IndexSectionKind : uint64_t {
  kBankRows = 1,         ///< every edge's world row, stride-padded
  kLabelPlanes = 2,      ///< the index's raw label words
  kLabelCompaction = 3,  ///< u32 per world: compact label-domain size
};

/// On-disk section-table entry. `offset` is from the file start and must be
/// 64-byte aligned; `length` is the exact payload byte count (the pad up to
/// the next section is not covered by the section's checksum).
struct IndexSectionEntry {
  uint64_t kind;  ///< IndexSectionKind
  uint64_t offset;
  uint64_t length;
};
static_assert(sizeof(IndexSectionEntry) == 24, "on-disk table layout");

/// 64-bit content digest of a graph: directedness, node count, and every
/// edge's (src, dst, probability bits) in id order. This keys the index
/// file to the exact graph it was built from — any reorder, endpoint, or
/// probability change produces a different digest, and the load path
/// rejects the file with a typed error instead of returning answers for the
/// wrong graph.
uint64_t GraphContentDigest(const UncertainGraph& g);

/// Word-wise 64-bit hash (splitmix64 mixing) used for the graph digest and
/// every file checksum. Not cryptographic — it guards against corruption
/// and truncation, not adversaries.
uint64_t HashBytes(const void* data, size_t size);

/// Move-only RAII wrapper over a read-only (PROT_READ) mmap of an entire
/// file. A missing file is Status::NotFound (callers treat "no file yet" as
/// the silent build-and-save path); everything else is kIoError.
class MappedFile {
 public:
  static StatusOr<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const unsigned char* data() const {
    return static_cast<const unsigned char*>(addr_);
  }
  size_t size() const { return size_; }
  bool empty() const { return addr_ == nullptr; }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

/// Serializes (bank, index) into the flat file at `path` via write-temp +
/// rename. `world_options` provides the key fields the file records (seed)
/// and must match the bank (`num_samples` == bank.num_worlds()); `generation`
/// is stamped into the header — pass previous generation + 1 when
/// republishing after an incremental relabel. Returns the file's total
/// byte size.
StatusOr<size_t> SaveIndex(const WorldBank& bank,
                           const ReliabilityIndex& index,
                           const WorldBank::Options& world_options,
                           uint64_t generation, const std::string& path);

/// A loaded index and everything that keeps it alive. The bank's bit rows
/// point into `mapping` (zero copy), so members are ordered for correct
/// destruction: index first, then bank, then the mapping.
struct LoadedIndex {
  MappedFile mapping;
  std::unique_ptr<WorldBank> bank;
  std::unique_ptr<ReliabilityIndex> index;
  uint64_t generation = 0;
  size_t file_bytes = 0;
};

/// Loads `path` for (g, world_options): O(file size) — mmap, validate,
/// checksum, adopt; no sampling and no relabeling. Typed failures:
///  - kNotFound: no file at `path`;
///  - kFailedPrecondition: not an index file (magic/version/endianness) or
///    built for a different key (digest, directedness, Z, seed, lane
///    layout) or over `index_options.max_label_bytes`;
///  - kIoError: truncation or checksum mismatch;
///  - kInvalidArgument: structurally malformed (inconsistent header fields,
///    misaligned or mis-sized sections, out-of-range payload values).
/// The returned bank reads directly from the read-only mapping; `g` must
/// outlive it.
StatusOr<LoadedIndex> LoadIndex(
    const std::string& path, const UncertainGraph& g,
    const WorldBank::Options& world_options,
    const ReliabilityIndex::Options& index_options);

/// Header + section table of an index file, without validating its key,
/// checksums, or payloads (magic/version/endianness and table bounds are
/// still checked). For tooling and tests.
struct IndexFileInfo {
  IndexFileHeader header;
  std::vector<IndexSectionEntry> sections;
  size_t file_bytes = 0;
};
StatusOr<IndexFileInfo> InspectIndexFile(const std::string& path);

}  // namespace relmax

#endif  // RELMAX_INDEX_INDEX_IO_H_
