// Journal file mutation round-trip: byte-level mutations of saved journals
// must make load() return an error or a journal that saves, reloads and
// saves again to the same bytes.  Never a throw, never a crash (the suite
// also runs under ASan/UBSan).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "telemetry/journal.hpp"
#include "util/rng.hpp"

namespace wrt::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string saved_bytes(const Journal& journal) {
  const std::string path = temp_path("journal_fuzz_corpus.jrnl");
  EXPECT_TRUE(journal.save(path).ok());
  return read_file(path);
}

std::vector<std::string> corpus() {
  std::vector<std::string> files;
  files.push_back(saved_bytes(Journal(16)));

  Journal wrapped(4);
  RingMeta meta;
  meta.ring_latency_slots = 32;
  meta.t_rap_slots = 20;
  meta.quotas = {{0, Quota{2, 1}}, {1, Quota{3, 2}}, {4, Quota{1, 1}}};
  wrapped.set_meta(meta);
  for (int i = 0; i < 7; ++i) {
    wrapped.record(0, JournalKind::kSatArrive, 10 * i, 9,
                   static_cast<std::uint64_t>(i));
  }
  wrapped.record(3, JournalKind::kCutOut, 999, 1);
  files.push_back(saved_bytes(wrapped));

  Journal mixed(8);
  util::RngStream rng(7, 0x10AD);
  const JournalKind kinds[] = {
      JournalKind::kSatArrive, JournalKind::kSatRelease,
      JournalKind::kTransmit,  JournalKind::kDeliver,
      JournalKind::kJoin,      JournalKind::kRebuildDone,
      JournalKind::kClaimDone, JournalKind::kTreeRebuilt};
  for (Tick tick = 0; tick < 40; ++tick) {
    mixed.record(static_cast<NodeId>(rng.uniform_int(std::uint64_t{6})),
                 kinds[rng.uniform_int(std::size(kinds))], tick,
                 static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{9})),
                 rng.uniform_int(std::uint64_t{1000}));
  }
  files.push_back(saved_bytes(mixed));
  return files;
}

std::string mutate(std::string bytes, util::RngStream& rng) {
  // Small values and sign/boundary bytes reach the count and id checks.
  constexpr unsigned char kInteresting[] = {0x00, 0x01, 0x02, 0x07,
                                            0x7F, 0x80, 0xFE, 0xFF};
  const auto edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    const auto byte = static_cast<char>(
        rng.bernoulli(0.5) ? kInteresting[rng.uniform_int(sizeof(kInteresting))]
                           : rng.uniform_int(std::uint64_t{256}));
    const auto at =
        static_cast<std::size_t>(rng.uniform_int(bytes.size() + 1));
    switch (rng.uniform_int(std::uint64_t{8})) {
      case 0:
        bytes.erase(at < bytes.size() ? at : bytes.size(), 1);
        break;
      case 1:
        bytes.insert(at, 1, byte);
        break;
      case 2:
        bytes.resize(at);  // truncation
        break;
      default:
        if (at < bytes.size()) bytes[at] = byte;
        break;
    }
  }
  return bytes;
}

TEST(JournalFuzz, MutatedFilesLoadOrRoundTrip) {
  const std::vector<std::string> files = corpus();
  const std::string mutant_path = temp_path("journal_fuzz_mutant.jrnl");
  const std::string first_path = temp_path("journal_fuzz_first.jrnl");
  const std::string second_path = temp_path("journal_fuzz_second.jrnl");
  util::RngStream rng(20240601, 0x1F22);
  std::size_t accepted = 0;
  std::size_t failures = 0;
  for (int i = 0; i < 3000; ++i) {
    write_file(mutant_path, mutate(files[rng.uniform_int(files.size())], rng));
    util::Result<Journal> loaded = util::Error::invalid_argument("unset");
    try {
      loaded = Journal::load(mutant_path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "load threw " << e.what() << " on mutant " << i;
      continue;
    }
    if (!loaded.ok()) continue;
    ++accepted;
    ASSERT_TRUE(loaded.value().save(first_path).ok());
    const auto reloaded = Journal::load(first_path);
    const bool same = reloaded.ok() && reloaded.value().save(second_path).ok() &&
                      read_file(first_path) == read_file(second_path);
    if (!same && ++failures <= 3) {
      ADD_FAILURE() << "no round trip for mutant " << i << ": "
                    << (reloaded.ok() ? "bytes differ"
                                      : reloaded.error().message);
    }
  }
  EXPECT_EQ(failures, 0u);
  // The mutants must exercise the accepting path, not only the rejections.
  EXPECT_GT(accepted, 300u);
}

}  // namespace
}  // namespace wrt::telemetry
