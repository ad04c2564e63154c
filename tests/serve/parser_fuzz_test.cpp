// Seeded parser fuzz: byte flips, truncations and splices of one valid
// input per parser — the journal (line decoder and whole-file replay),
// the manifest, the checkpoint, the fault plan and a wire submit
// envelope. Whatever the bytes,
// a parser either returns or throws its own error type; nothing else may
// escape. The same loop shape as the wire framing fuzz (fixed seeds,
// bounded counts); ASan/UBSan turn any out-of-bounds read or bad cast on
// the way into a hard failure.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/checksum.hpp"
#include "fault/plan.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "wire/envelope.hpp"

namespace g6::serve {
namespace {

namespace fs = std::filesystem;

/// One to three edits of `valid`: flip a bit of a byte, cut the tail, or
/// splice a slice of the valid input in at a random position.
std::string mutate(const std::string& valid, Rng& rng) {
  std::string s = valid;
  const std::uint64_t edits = 1 + rng.uniform_index(3);
  for (std::uint64_t e = 0; e < edits && !s.empty(); ++e) {
    switch (rng.uniform_index(3)) {
      case 0:
        s[rng.uniform_index(s.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
        break;
      case 1:
        s.resize(rng.uniform_index(s.size()));
        break;
      default: {
        const std::size_t from = rng.uniform_index(valid.size());
        const std::size_t room = std::min<std::size_t>(64, valid.size() - from);
        const std::size_t len = 1 + rng.uniform_index(room);
        s.insert(rng.uniform_index(s.size() + 1), valid, from, len);
        break;
      }
    }
  }
  return s;
}

/// Feed `count` mutations of `valid` to `parse`; every one must parse or
/// throw `Error`. Returns how many parsed (a fuzz that never gets past
/// the first check would be no fuzz at all).
template <typename Error, typename Parse>
int fuzz(const std::string& valid, std::uint64_t seed, int count,
         Parse parse) {
  parse(valid);  // the seed input itself is valid
  Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < count; ++i) {
    const std::string input = mutate(valid, rng);
    try {
      parse(input);
      ++parsed;
    } catch (const Error&) {
      // the parser's own refusal: fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as "
                    << typeid(e).name() << ": " << e.what()
                    << "\ninput: " << input;
    }
  }
  return parsed;
}

fs::path scratch_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("g6_parser_fuzz_" + std::to_string(::getpid()) + "_" + name);
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

/// A journal with one record of every type, in a plausible order.
std::string valid_journal() {
  JobSpec spec;
  spec.name = "fuzz";
  spec.boards_min = 1;
  spec.boards_max = 2;
  spec.deadline_rounds = 9;
  ServiceConfig cfg;
  cfg.durability.checkpoint_dir = "ckpts";
  cfg.board_deaths.push_back({3, 1});

  std::vector<JournalRecord> recs(15);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].seq = i + 1;
    recs[i].round = i / 3;
    recs[i].job = 1;
  }
  using T = JournalRecordType;
  recs[0].type = T::kOpen;
  recs[0].config = cfg;
  recs[1].type = T::kSubmitted;
  recs[1].spec = spec;
  recs[2].type = T::kAdmitted;
  recs[3].type = T::kStarted;
  recs[3].boards = 2;
  recs[4].type = T::kQuantum;
  recs[4].quanta = 1;
  recs[4].t = 0.015625;
  recs[4].steps = 120;
  recs[4].blocksteps = 16;
  recs[5].type = T::kCheckpointed;
  recs[5].file = "ckpts/fuzz.ckpt";
  recs[5].tag = job_run_tag(spec);
  recs[6].type = T::kLeaseResized;
  recs[6].boards = 1;
  recs[6].reason = "shrink";
  recs[7].type = T::kBoardDeath;
  recs[7].board = 1;
  recs[8].type = T::kRequeued;
  recs[8].reason = "revocation";
  recs[8].requeues = 1;
  recs[9].type = T::kRecovered;
  recs[9].records = 9;
  recs[10].type = T::kFinished;
  recs[10].e0 = -0.25;
  recs[10].e_final = -0.2500000001;
  recs[11].type = T::kRejected;
  recs[11].reason = "invalid-spec";
  recs[11].message = "duplicate job name 'fuzz'";
  recs[12].type = T::kFailed;
  recs[12].reason = "deadline-exceeded";
  recs[12].message = "deadline";
  recs[13].type = T::kQuarantined;
  recs[13].failures = 3;
  recs[13].file = "ckpts/fuzz.quarantine.flight.json";
  recs[14].type = T::kDrained;
  recs[14].reason = "drained";
  std::string out;
  for (const JournalRecord& r : recs) out += encode_record(r) + "\n";
  return out;
}

TEST(ServeParserFuzz, JournalRecordDecoder) {
  const std::string journal = valid_journal();
  std::istringstream lines(journal);
  std::uint64_t seed = 20261019;
  for (std::string line; std::getline(lines, line); ++seed) {
    SCOPED_TRACE(line);
    fuzz<JournalError>(line, seed, 300,
                       [](const std::string& s) { decode_record(s); });
  }
}

TEST(ServeParserFuzz, JournalReplay) {
  const fs::path path = scratch_file("serve.wal");
  const int parsed = fuzz<JournalError>(
      valid_journal(), 77, 1500, [&path](const std::string& s) {
        write_file(path, s);
        replay_journal(path.string());
      });
  // Truncations at a line boundary (or in the last line) still replay.
  EXPECT_GT(parsed, 0);
  fs::remove(path);
}

TEST(ServeParserFuzz, Manifest) {
  const std::string manifest = R"({
  "schema": "grape6-serve-manifest-v1",
  "service": {"max_queue_depth": 8, "quantum_blocksteps": 4,
              "max_requeues": 1, "max_job_failures": 3,
              "backoff_base_rounds": 2, "boards_per_host": 2,
              "hosts_per_cluster": 1, "clusters": 1,
              "board_deaths": [{"round": 3, "board": 0}]},
  "jobs": [
    {"name": "a", "model": "plummer", "n": 64, "w0": 5.0, "t_end": 0.125,
     "eps": 0.03125, "eta": 0.01, "seed": 3, "boards": 1, "boards_min": 1,
     "boards_max": 2, "priority": "interactive", "deadline_rounds": 40,
     "chaos_fail_quanta": 1},
    {"name": "b", "model": "king", "n": 32, "priority": "batch"}
  ]
})";
  fuzz<ManifestError>(manifest, 31337, 3000,
                      [](const std::string& s) { parse_manifest(s); });
}

std::string valid_checkpoint() {
  fault::RunCheckpoint cp;
  cp.run_tag = "serve job=fuzz model=plummer n=3";
  cp.e0 = -0.25;
  cp.next_snap = 0.125;
  cp.snap_id = 2;
  HermiteState& s = cp.state;
  s.time = 0.0625;
  s.total_steps = 40;
  s.total_blocksteps = 9;
  for (int i = 0; i < 3; ++i) {
    JParticle p;
    p.mass = 1.0 / 3.0;
    p.t0 = 0.0625;
    p.pos = Vec3(0.1 * i, -0.2, 0.3);
    p.vel = Vec3(0.01, 0.02 * i, -0.03);
    s.particles.push_back(p);
    s.dt.push_back(0.0078125);
    Force f;
    f.pot = -0.5;
    s.last_force.push_back(f);
  }
  cp.exponents.assign(2, BlockExponents{});
  std::ostringstream os;
  fault::write_checkpoint(os, cp);
  return os.str();
}

void read_checkpoint_text(const std::string& s) {
  std::istringstream is(s);
  fault::read_checkpoint(is);
}

TEST(ServeParserFuzz, Checkpoint) {
  fuzz<fault::FaultError>(valid_checkpoint(), 4242, 2000,
                          read_checkpoint_text);
}

TEST(ServeParserFuzz, CheckpointBodyBehindAValidTrailer) {
  // Almost every raw mutation dies at the checksum. Re-signing the
  // mutated body gets the same mutations through to the field parser.
  const std::string valid = valid_checkpoint();
  const std::string body = valid.substr(0, valid.rfind("end\n") + 4);
  const auto resign = [](std::string b) {
    if (b.size() < 4 || b.compare(b.size() - 4, 4, "end\n") != 0) {
      b += "end\n";
    }
    fault::Fnv1a64 h;
    h.fold(std::string_view(b));
    std::ostringstream os;
    os << b << "sum " << std::hex << std::setw(16) << std::setfill('0')
       << h.digest() << "\n";
    return os.str();
  };
  ASSERT_EQ(resign(body), valid);
  Rng rng(8086);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = resign(mutate(body, rng));
    try {
      read_checkpoint_text(input);
    } catch (const fault::FaultError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as "
                    << typeid(e).name() << ": " << e.what()
                    << "\ninput: " << input;
    }
  }
}

TEST(ServeParserFuzz, FaultPlan) {
  const std::string plan = R"({
  "seed": 77, "jmem_flip_rate": 0.001, "ipacket_rate": 0.002,
  "compute_rate": 0.003, "stuck_chips": [3, 9],
  "hard_failures": [{"time": 0.5, "board": 1, "module": 2, "chip": 0}],
  "link_drop_rate": 0.01, "link_spike_rate": 0.02,
  "link_spike_factor": 5.0, "retransmit_timeout_s": 2e-4
})";
  const fs::path path = scratch_file("plan.json");
  fuzz<fault::FaultError>(plan, 1979, 1500, [&path](const std::string& s) {
    write_file(path, s);
    fault::FaultPlan::from_file(path.string());
  });
  fs::remove(path);
}

TEST(ServeParserFuzz, WireSubmitEnvelope) {
  // What a socket client sends: the envelope parser, then the shared
  // job-spec decoder on its "spec" body. Only WireError may escape —
  // anything else would take the daemon down for every tenant.
  JobSpec spec;
  spec.name = "fuzz";
  spec.boards_min = 1;
  spec.boards_max = 2;
  spec.deadline_rounds = 9;
  spec.chaos_fail_quanta = 1;
  std::ostringstream os;
  os << R"({"schema":"grape6-wire-v1","kind":"request","id":7,)"
     << R"("method":"submit","spec":)";
  wire::encode_job_spec(os, spec);
  os << "}";
  const int parsed = fuzz<wire::WireError>(
      os.str(), 6502, 3000, [](const std::string& s) {
        // Frames never carry empty payloads (the decoder refuses a zero
        // length), so an empty envelope is not an input the server sees.
        if (s.empty()) return;
        const wire::Envelope env = wire::parse_envelope(s);
        if (const obs::JsonValue* body = env.root.find("spec")) {
          wire::decode_job_spec(*body);
        }
      });
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace g6::serve
