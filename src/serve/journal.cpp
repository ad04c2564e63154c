#include "serve/journal.hpp"

#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonObjectReader;
using obs::JsonValue;
using obs::json_escape;
using obs::json_number;

[[noreturn]] void fail(const std::string& what) {
  throw JournalError("journal: " + what);
}

// ---- encoding -----------------------------------------------------------

std::string quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

void encode_config(std::ostream& os, const ServiceConfig& c) {
  os << "{\"max_queue_depth\":" << c.max_queue_depth
     << ",\"quantum_blocksteps\":" << c.quantum_blocksteps
     << ",\"max_requeues\":" << c.max_requeues
     << ",\"max_job_failures\":" << c.max_job_failures
     << ",\"backoff_base_rounds\":" << c.backoff_base_rounds
     << ",\"boards_per_host\":" << c.machine.boards_per_host
     << ",\"hosts_per_cluster\":" << c.machine.hosts_per_cluster
     << ",\"clusters\":" << c.machine.clusters
     << ",\"checkpoint_dir\":" << quote(c.durability.checkpoint_dir)
     << ",\"checkpoint_every_quanta\":" << c.durability.checkpoint_every_quanta
     << ",\"board_deaths\":[";
  for (std::size_t i = 0; i < c.board_deaths.size(); ++i) {
    if (i) os << ',';
    os << "{\"round\":" << c.board_deaths[i].round
       << ",\"board\":" << c.board_deaths[i].board << "}";
  }
  os << "]}";
}

// ---- decoding -----------------------------------------------------------

ServiceConfig decode_config(const JsonValue& j, const std::string& where) {
  static const std::vector<std::string_view> kKeys = {
      "max_queue_depth",   "quantum_blocksteps", "max_requeues",
      "max_job_failures",  "backoff_base_rounds", "boards_per_host",
      "hosts_per_cluster", "clusters",           "checkpoint_dir",
      "checkpoint_every_quanta", "board_deaths"};
  const JsonObjectReader r(j, where, fail, kKeys, kKeys);
  ServiceConfig c;
  r.integer("max_queue_depth", &c.max_queue_depth);
  r.integer("quantum_blocksteps", &c.quantum_blocksteps);
  r.integer("max_requeues", &c.max_requeues);
  r.integer("max_job_failures", &c.max_job_failures);
  r.integer("backoff_base_rounds", &c.backoff_base_rounds);
  r.integer("boards_per_host", &c.machine.boards_per_host);
  r.integer("hosts_per_cluster", &c.machine.hosts_per_cluster);
  r.integer("clusters", &c.machine.clusters);
  r.string("checkpoint_dir", &c.durability.checkpoint_dir);
  r.integer("checkpoint_every_quanta", &c.durability.checkpoint_every_quanta);
  const std::vector<JsonValue>& deaths = r.array("board_deaths");
  for (std::size_t i = 0; i < deaths.size(); ++i) {
    const JsonObjectReader d(
        deaths[i], where + ".board_deaths[" + std::to_string(i) + "]", fail,
        {"round", "board"}, {"round", "board"});
    c.board_deaths.push_back(
        {d.integer<std::uint64_t>("round"), d.integer<std::size_t>("board")});
  }
  return c;
}

/// The keys a record of type `t` carries after seq, type and round, in
/// the order encode_record writes them; decode_record requires exactly
/// these.
std::vector<std::string_view> record_keys(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kOpen:
      return {"schema", "config"};
    case JournalRecordType::kRecovered:
      return {"records"};
    case JournalRecordType::kSubmitted:
      return {"job", "spec"};
    case JournalRecordType::kAdmitted:
      return {"job"};
    case JournalRecordType::kRejected:
    case JournalRecordType::kFailed:
      return {"job", "reason", "message"};
    case JournalRecordType::kStarted:
      return {"job", "boards"};
    case JournalRecordType::kQuantum:
      return {"job", "quanta", "t", "steps", "blocksteps"};
    case JournalRecordType::kCheckpointed:
      return {"job", "quanta", "file", "tag"};
    case JournalRecordType::kRequeued:
      return {"job", "reason", "requeues", "failures", "hold_until"};
    case JournalRecordType::kBoardDeath:
      return {"board"};
    case JournalRecordType::kFinished:
      return {"job", "quanta", "t", "e0", "e_final", "steps", "blocksteps"};
    case JournalRecordType::kQuarantined:
      return {"job", "failures", "file"};
    case JournalRecordType::kDrained:
      return {"reason"};
    case JournalRecordType::kLeaseResized:
      return {"job", "boards", "reason"};
  }
  return {};
}

/// Call `f(key, field)` for every keyed field of `rec` but seq and round.
template <typename Record, typename F>
void for_each_field(Record& rec, F f) {
  f("job", rec.job);
  f("spec", rec.spec);
  f("config", rec.config);
  f("reason", rec.reason);
  f("message", rec.message);
  f("file", rec.file);
  f("tag", rec.tag);
  f("quanta", rec.quanta);
  f("t", rec.t);
  f("e0", rec.e0);
  f("e_final", rec.e_final);
  f("steps", rec.steps);
  f("blocksteps", rec.blocksteps);
  f("requeues", rec.requeues);
  f("failures", rec.failures);
  f("hold_until", rec.hold_until);
  f("board", rec.board);
  f("boards", rec.boards);
  f("records", rec.records);
}

JournalRecordType type_from_name(const std::string& name,
                                 const std::string& where) {
  for (int t = 0; t <= static_cast<int>(JournalRecordType::kLeaseResized);
       ++t) {
    const auto rt = static_cast<JournalRecordType>(t);
    if (name == journal_record_type_name(rt)) return rt;
  }
  fail(where + ": unknown record type '" + name + "'");
}

}  // namespace

const char* journal_record_type_name(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kOpen:
      return "open";
    case JournalRecordType::kRecovered:
      return "recovered";
    case JournalRecordType::kSubmitted:
      return "submitted";
    case JournalRecordType::kAdmitted:
      return "admitted";
    case JournalRecordType::kRejected:
      return "rejected";
    case JournalRecordType::kStarted:
      return "started";
    case JournalRecordType::kQuantum:
      return "quantum";
    case JournalRecordType::kCheckpointed:
      return "checkpointed";
    case JournalRecordType::kRequeued:
      return "requeued";
    case JournalRecordType::kBoardDeath:
      return "board-death";
    case JournalRecordType::kFinished:
      return "finished";
    case JournalRecordType::kFailed:
      return "failed";
    case JournalRecordType::kQuarantined:
      return "quarantined";
    case JournalRecordType::kDrained:
      return "drained";
    case JournalRecordType::kLeaseResized:
      return "lease-resized";
  }
  return "?";
}

std::string encode_record(const JournalRecord& rec) {
  std::ostringstream os;
  os << "{\"seq\":" << rec.seq
     << ",\"type\":" << quote(journal_record_type_name(rec.type))
     << ",\"round\":" << rec.round;
  for (const std::string_view key : record_keys(rec.type)) {
    os << ",\"" << key << "\":";
    if (key == "schema") os << quote(kJournalSchema);
    for_each_field(rec, [&os, key](std::string_view k, const auto& v) {
      using T = std::decay_t<decltype(v)>;
      if (k != key) return;
      if constexpr (std::is_same_v<T, JobSpec>) {
        write_job_spec(os, v);
      } else if constexpr (std::is_same_v<T, ServiceConfig>) {
        encode_config(os, v);
      } else if constexpr (std::is_same_v<T, std::string>) {
        os << quote(v);
      } else if constexpr (std::is_same_v<T, double>) {
        os << json_number(v);
      } else {
        os << v;
      }
    });
  }
  os << "}";
  return os.str();
}

JournalRecord decode_record(std::string_view line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const std::exception& e) {
    fail(std::string("record is not valid JSON: ") + e.what());
  }
  JournalRecord rec;
  rec.type = type_from_name(
      JsonObjectReader(root, "record", fail).string("type"), "record");
  std::vector<std::string_view> keys = {"seq", "type", "round"};
  for (const std::string_view key : record_keys(rec.type)) keys.push_back(key);
  const std::string where =
      std::string("record '") + journal_record_type_name(rec.type) + "'";
  // Every key of the type must be present, so the reads below assign
  // exactly the fields this record type carries.
  const JsonObjectReader r(root, where, fail, keys, keys);
  rec.seq = r.integer<std::uint64_t>("seq");
  rec.round = r.integer<std::uint64_t>("round");
  std::string schema;
  if (r.string("schema", &schema) && schema != kJournalSchema) {
    fail(where + ": schema '" + schema + "' (expected " + kJournalSchema +
         ")");
  }
  for_each_field(rec, [&r, &where](std::string_view key, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if (!r.has(key)) return;
    if constexpr (std::is_same_v<T, JobSpec>) {
      v = read_job_spec(r.at(key), where + ".spec", fail, /*every_key=*/true);
    } else if constexpr (std::is_same_v<T, ServiceConfig>) {
      v = decode_config(r.at(key), where + ".config");
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r.string(key);
    } else if constexpr (std::is_same_v<T, double>) {
      v = r.number(key);
    } else {
      v = r.integer<T>(key);
    }
  });
  return rec;
}

JournalReplay replay_journal(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string content = buf.str();
  if (content.empty()) fail(path + " is empty");

  JournalReplay replay;
  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated final line: the one torn write the append protocol
      // permits. Drop it — the transition it described never took effect.
      replay.torn_tail = true;
      break;
    }
    ++line_no;
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) fail(path + ": empty line " + std::to_string(line_no));
    JournalRecord rec;
    try {
      rec = decode_record(line);
    } catch (const JournalError& e) {
      fail(path + " line " + std::to_string(line_no) + ": " + e.what());
    }
    if (rec.seq != line_no) {
      fail(path + " line " + std::to_string(line_no) + ": sequence number " +
           std::to_string(rec.seq) + " (expected " + std::to_string(line_no) +
           ")");
    }
    if (line_no == 1 && rec.type != JournalRecordType::kOpen) {
      fail(path + ": first record must be 'open'");
    }
    if (line_no > 1 && rec.type == JournalRecordType::kOpen) {
      fail(path + " line " + std::to_string(line_no) +
           ": duplicate 'open' record");
    }
    replay.records.push_back(std::move(rec));
    replay.complete_bytes = pos;
  }
  if (replay.records.empty()) {
    fail(path + ": no complete records (torn 'open' line?)");
  }
  return replay;
}

std::string job_run_tag(const JobSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "serve job=" << spec.name << " model=" << spec.model
     << " n=" << spec.n << " w0=" << spec.w0 << " t_end=" << spec.t_end
     << " eps=" << spec.eps << " eta=" << spec.eta << " seed=" << spec.seed
     << " boards=" << spec.boards;
  return os.str();
}

Journal::Journal(const std::string& path, bool truncate,
                 std::uint64_t start_seq)
    : log_(path, truncate), next_seq_(start_seq) {
  G6_REQUIRE_MSG(start_seq >= 1, "journal sequence numbers are 1-based");
}

void Journal::append(JournalRecord rec) {
  rec.seq = next_seq_++;
  log_.append(encode_record(rec));
}

}  // namespace g6::serve
